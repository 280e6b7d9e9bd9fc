// Regret battery for the adaptive meta-policy (DESIGN.md section 11).
//
// Three trace families are chosen so that every fixed expert in the
// `adaptive:lruk2+lfu+mru` mixture is decisively wrong on at least one of
// them, while the meta-policy — switching experts on windowed ghost-cache
// regret — must stay competitive everywhere:
//
//  * zipfian        — stationary 80-20 skew. LRU-2 and LFU are near the A0
//                     optimum; MRU keeps exactly the wrong pages.
//  * moving-hotspot — the hot window migrates (Section 4.3 of the paper:
//                     LFU "does not adapt itself to evolving access
//                     patterns"). LRU-2 tracks the window; LFU's stale
//                     reference counts pin yesterday's hot set.
//  * phase-change   — OLTP bursts over a small hot region alternating with
//                     multi-lap sequential scans over a table larger than
//                     the buffer. Any LRU-like stack (LRU-2 included)
//                     scores zero scan hits on a lapping cyclic scan —
//                     eviction by recency always drops the page the scan
//                     is about to revisit — while MRU retains a stable
//                     prefix of the table.
//
// Every policy is measured over the identical reference string (the
// generator is reset per run); the Belady oracle on the same string gives
// the per-family miss floor, and `regret` is misses above that floor.
//
// Shape checks (also asserted by CI on the JSON artifact):
//  * adaptive misses <= 1.15x the best fixed expert's, on every family;
//  * every fixed expert exceeds that bound on at least one family.
//
// Flags: --json <path>, --quick, and the provenance flags of
// bench_common.h (--git-sha/--build-type/--sanitizer, stamped into the
// JSON by run_quick.sh).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "sim/table.h"
#include "util/random.h"
#include "util/zipf.h"
#include "workload/moving_hotspot.h"
#include "workload/workload.h"
#include "workload/zipfian_workload.h"

namespace lruk {
namespace {

constexpr double kRegretBound = 1.15;

// OLTP bursts (skewed references over pages [0, oltp_pages)) alternating
// with sequential scan phases over pages [oltp_pages, oltp_pages +
// scan_pages). The scan cursor persists across phases, so consecutive
// scan phases keep lapping the same table — the Example 1.2 batch process
// revisiting its relation between interactive bursts.
class PhaseChangeWorkload final : public ReferenceStringGenerator {
 public:
  struct Options {
    uint64_t oltp_pages = 64;
    uint64_t scan_pages = 192;
    uint64_t oltp_refs = 512;   // Per cycle.
    uint64_t scan_refs = 2048;  // Per cycle (several laps of the table).
    double alpha = 0.8;
    double beta = 0.2;
    uint64_t seed = 19931;
  };

  explicit PhaseChangeWorkload(Options options)
      : options_(options),
        dist_(options.alpha, options.beta, options.oltp_pages),
        rng_(options.seed) {}

  AccessRecord Next() override {
    AccessRecord ref;
    if (pos_ < options_.oltp_refs) {
      ref.page = static_cast<PageId>(dist_.Sample(rng_) - 1);
    } else {
      ref.page = static_cast<PageId>(options_.oltp_pages + scan_cursor_);
      scan_cursor_ = (scan_cursor_ + 1) % options_.scan_pages;
    }
    if (++pos_ == options_.oltp_refs + options_.scan_refs) pos_ = 0;
    return ref;
  }

  void Reset() override {
    rng_ = RandomEngine(options_.seed);
    pos_ = 0;
    scan_cursor_ = 0;
  }

  uint64_t NumPages() const override {
    return options_.oltp_pages + options_.scan_pages;
  }
  std::string_view Name() const override { return "phase-change"; }

 private:
  Options options_;
  RecursiveSkewDistribution dist_;
  RandomEngine rng_;
  uint64_t pos_ = 0;
  uint64_t scan_cursor_ = 0;
};

struct PolicyRow {
  std::string label;
  std::string spec;
  bool is_adaptive = false;  // Meta-policy rows (reported with MetaStats).
  bool is_expert = false;    // Participates in the best-fixed bound.

  uint64_t misses = 0;
  uint64_t regret = 0;  // misses - belady_misses.
  double hit_ratio = 0.0;
  double ratio_vs_best = 0.0;  // misses / best fixed expert misses.
  // Meta rows only:
  uint64_t switches = 0;
  std::string final_expert;
};

struct FamilyResult {
  std::string family;
  size_t capacity = 0;
  uint64_t warmup_refs = 0;
  uint64_t measure_refs = 0;
  uint64_t belady_misses = 0;
  std::vector<PolicyRow> rows;
  uint64_t best_fixed_misses = 0;
  std::string best_fixed;
  bool adaptive_within_bound = false;
  std::vector<std::string> losers;  // Fixed experts over the bound here.
};

// The switching knobs the bench pins on the adaptive row: windows much
// shorter than a phase-change cycle so the meta-policy can react within a
// scan phase, with enough hysteresis not to flap on the stationary
// families.
void TightenAdaptiveKnobs(PolicyConfig* config) {
  config->adaptive.window_refs = 2048;
  config->adaptive.window_buckets = 8;
  config->adaptive.cooldown_refs = 512;
  config->adaptive.min_window_misses = 16;
  config->adaptive.switch_margin = 0.05;
}

FamilyResult RunFamily(const std::string& family,
                       ReferenceStringGenerator& generator,
                       const SimOptions& sim) {
  FamilyResult out;
  out.family = family;
  out.capacity = sim.capacity;
  out.warmup_refs = sim.warmup_refs;
  out.measure_refs = sim.measure_refs;

  auto belady = SimulatePolicy(PolicyConfig::Belady(), generator, sim);
  if (!belady.ok()) {
    std::fprintf(stderr, "belady on %s: %s\n", family.c_str(),
                 belady.status().ToString().c_str());
    std::exit(1);
  }
  out.belady_misses = belady->misses;

  auto make_row = [](const char* label, const char* spec, bool adaptive) {
    PolicyRow row;
    row.label = label;
    row.spec = spec;
    row.is_adaptive = adaptive;
    row.is_expert = !adaptive;
    return row;
  };
  out.rows = {
      make_row("lru-2", "lruk2", false),
      make_row("lfu", "lfu", false),
      make_row("mru", "mru", false),
      make_row("adaptive", "adaptive:lruk2+lfu+mru", true),
  };

  for (PolicyRow& row : out.rows) {
    auto config = ParsePolicySpec(row.spec);
    if (!config.ok()) {
      std::fprintf(stderr, "parse '%s': %s\n", row.spec.c_str(),
                   config.status().ToString().c_str());
      std::exit(1);
    }
    if (row.is_adaptive) {
      TightenAdaptiveKnobs(&*config);
      // Built by hand (not SimulatePolicy) so the policy object survives
      // the run and its MetaStats can be harvested.
      PolicyContext context;
      context.capacity = sim.capacity;
      auto policy = MakePolicy(*config, context);
      if (!policy.ok()) {
        std::fprintf(stderr, "build '%s': %s\n", row.spec.c_str(),
                     policy.status().ToString().c_str());
        std::exit(1);
      }
      generator.Reset();
      SimResult result = RunSimulation(**policy, generator, sim);
      row.misses = result.misses;
      row.hit_ratio = result.HitRatio();
      MetaPolicyStats meta = (*policy)->GetMetaStats();
      row.switches = meta.switches;
      if (meta.active_expert < meta.experts.size()) {
        row.final_expert = meta.experts[meta.active_expert].name;
      }
    } else {
      auto result = SimulatePolicy(*config, generator, sim);
      if (!result.ok()) {
        std::fprintf(stderr, "simulate '%s': %s\n", row.spec.c_str(),
                     result.status().ToString().c_str());
        std::exit(1);
      }
      row.misses = result->misses;
      row.hit_ratio = result->HitRatio();
    }
    row.regret = row.misses > out.belady_misses
                     ? row.misses - out.belady_misses
                     : 0;
  }

  for (const PolicyRow& row : out.rows) {
    if (!row.is_expert) continue;
    if (out.best_fixed.empty() || row.misses < out.best_fixed_misses) {
      out.best_fixed_misses = row.misses;
      out.best_fixed = row.label;
    }
  }
  const double bound =
      kRegretBound * static_cast<double>(out.best_fixed_misses);
  for (PolicyRow& row : out.rows) {
    row.ratio_vs_best =
        out.best_fixed_misses == 0
            ? 0.0
            : static_cast<double>(row.misses) /
                  static_cast<double>(out.best_fixed_misses);
    if (row.is_expert && static_cast<double>(row.misses) > bound) {
      out.losers.push_back(row.label);
    }
  }
  const PolicyRow* adaptive = nullptr;
  for (const PolicyRow& row : out.rows) {
    if (row.label == "adaptive") adaptive = &row;
  }
  out.adaptive_within_bound =
      adaptive != nullptr && static_cast<double>(adaptive->misses) <= bound;
  return out;
}

void WriteJson(const char* path, const BenchProvenance& provenance,
               const std::vector<FamilyResult>& families,
               bool within_everywhere, bool every_expert_loses) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_meta_policy\",\n");
  WriteProvenanceJson(f, provenance);
  std::fprintf(f, ",\n  \"regret_bound\": %.2f,\n  \"families\": [\n",
               kRegretBound);
  for (size_t i = 0; i < families.size(); ++i) {
    const FamilyResult& fam = families[i];
    std::fprintf(f,
                 "    {\"family\": \"%s\", \"capacity\": %zu, "
                 "\"warmup_refs\": %llu, \"measure_refs\": %llu,\n"
                 "     \"belady_misses\": %llu, \"best_fixed\": \"%s\", "
                 "\"best_fixed_misses\": %llu,\n"
                 "     \"adaptive_within_bound\": %s, \"losers\": [",
                 fam.family.c_str(), fam.capacity,
                 static_cast<unsigned long long>(fam.warmup_refs),
                 static_cast<unsigned long long>(fam.measure_refs),
                 static_cast<unsigned long long>(fam.belady_misses),
                 fam.best_fixed.c_str(),
                 static_cast<unsigned long long>(fam.best_fixed_misses),
                 fam.adaptive_within_bound ? "true" : "false");
    for (size_t l = 0; l < fam.losers.size(); ++l) {
      std::fprintf(f, "%s\"%s\"", l > 0 ? ", " : "", fam.losers[l].c_str());
    }
    std::fprintf(f, "],\n     \"policies\": [\n");
    for (size_t r = 0; r < fam.rows.size(); ++r) {
      const PolicyRow& row = fam.rows[r];
      std::fprintf(f,
                   "       {\"policy\": \"%s\", \"misses\": %llu, "
                   "\"hit_ratio\": %.4f, \"regret_vs_belady\": %llu, "
                   "\"ratio_vs_best_fixed\": %.3f",
                   row.label.c_str(),
                   static_cast<unsigned long long>(row.misses), row.hit_ratio,
                   static_cast<unsigned long long>(row.regret),
                   row.ratio_vs_best);
      if (row.is_adaptive) {
        std::fprintf(f, ", \"switches\": %llu, \"final_expert\": \"%s\"",
                     static_cast<unsigned long long>(row.switches),
                     row.final_expert.c_str());
      }
      std::fprintf(f, "}%s\n", r + 1 < fam.rows.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", i + 1 < families.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"checks\": {\n"
               "    \"regret_bound\": %.2f,\n"
               "    \"adaptive_within_bound_everywhere\": %s,\n"
               "    \"every_fixed_expert_loses_somewhere\": %s\n"
               "  }\n}\n",
               kRegretBound, within_everywhere ? "true" : "false",
               every_expert_loses ? "true" : "false");
  std::fclose(f);
}

}  // namespace
}  // namespace lruk

int main(int argc, char** argv) {
  using namespace lruk;

  const char* json_path = nullptr;
  bool quick = false;
  BenchProvenance provenance;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (ParseProvenanceFlag(argc, argv, &i, &provenance)) {
      // consumed
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json <path>] [--git-sha <sha>] "
                   "[--build-type <type>] [--sanitizer <name>]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<FamilyResult> families;

  {
    ZipfianOptions zopt;
    zopt.num_pages = 2000;
    zopt.seed = 19932;
    ZipfianWorkload workload(zopt);
    SimOptions sim;
    sim.capacity = 100;
    sim.warmup_refs = quick ? 10000 : 30000;
    sim.measure_refs = quick ? 20000 : 100000;
    sim.track_classes = false;
    families.push_back(RunFamily("zipfian", workload, sim));
  }
  {
    MovingHotspotOptions mopt;
    mopt.num_pages = 10000;
    mopt.hot_pages = 100;
    mopt.hot_probability = 0.9;
    mopt.epoch_length = quick ? 5000 : 10000;
    mopt.shift = 2000;  // Near-total turnover: stale LFU counts mislead.
    mopt.seed = 19933;
    MovingHotspotWorkload workload(mopt);
    SimOptions sim;
    sim.capacity = 150;
    sim.warmup_refs = quick ? 15000 : 50000;
    sim.measure_refs = quick ? 30000 : 150000;
    sim.track_classes = false;
    families.push_back(RunFamily("moving-hotspot", workload, sim));
  }
  {
    PhaseChangeWorkload::Options popt;  // 2560-ref cycle, 192-page table.
    PhaseChangeWorkload workload(popt);
    SimOptions sim;
    sim.capacity = 100;
    sim.warmup_refs = quick ? 10240 : 20480;    // Whole cycles.
    sim.measure_refs = quick ? 25600 : 102400;  // Whole cycles.
    sim.track_classes = false;
    families.push_back(RunFamily("phase-change", workload, sim));
  }

  AsciiTable table({"family", "policy", "misses", "hit_ratio", "regret",
                    "vs_best", "switches", "final_expert"});
  for (const FamilyResult& fam : families) {
    for (const PolicyRow& row : fam.rows) {
      table.AddRow({fam.family, row.label, AsciiTable::Integer(row.misses),
                    AsciiTable::Fixed(row.hit_ratio, 4),
                    AsciiTable::Integer(row.regret),
                    AsciiTable::Fixed(row.ratio_vs_best, 3) + "x",
                    row.is_adaptive ? AsciiTable::Integer(row.switches) : "-",
                    row.is_adaptive ? row.final_expert : "-"});
    }
    table.AddRow({fam.family, "belady", AsciiTable::Integer(fam.belady_misses),
                  "-", "0", "-", "-", "-"});
  }
  table.Print();
  table.MaybeWriteCsvFromEnv("ablation_meta_policy");

  bool within_everywhere = true;
  for (const FamilyResult& fam : families) {
    within_everywhere = within_everywhere && fam.adaptive_within_bound;
    std::printf("shape: [%s] adaptive within %.2fx of best fixed expert "
                "(%s): %s\n",
                fam.family.c_str(), kRegretBound, fam.best_fixed.c_str(),
                fam.adaptive_within_bound ? "yes" : "NO");
  }
  bool every_expert_loses = true;
  for (const char* expert : {"lru-2", "lfu", "mru"}) {
    bool loses = false;
    for (const FamilyResult& fam : families) {
      for (const std::string& loser : fam.losers) {
        loses = loses || loser == expert;
      }
    }
    every_expert_loses = every_expert_loses && loses;
    std::printf("shape: fixed expert %s exceeds the bound on >=1 family: %s\n",
                expert, loses ? "yes" : "NO");
  }

  if (json_path != nullptr) {
    WriteJson(json_path, provenance, families, within_everywhere,
              every_expert_loses);
    std::printf("wrote %s\n", json_path);
  }
  return within_everywhere && every_expert_loses ? 0 : 1;
}
