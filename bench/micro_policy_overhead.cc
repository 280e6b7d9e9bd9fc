// Bookkeeping-overhead microbenchmark (the paper's claim that LRU-K "is
// fairly simple and incurs little bookkeeping overhead"). Two parts:
//
//  1. Catalog sweep — nanoseconds per reference (ReferenceStep, the full
//     hit-or-admit-with-eviction step at a fixed buffer size) for every
//     policy in the catalog, on the Zipfian 80-20 stream. An 8.5 ms 1993
//     disk read is ~10^5 of these steps, so sub-microsecond numbers
//     substantiate the claim. The `adaptive:` rows price the
//     meta-policy's ghost caches against the bare expert.
//
//  2. Lazy-heap throughput — LRU-2's victim search (DESIGN.md "Victim
//     search") at two resident-set sizes, on a 95%-hot / 5%-cold stream:
//     mostly hits (where the heap does nothing) with enough cold misses to
//     keep evictions honest. CI puts a coarse floor under these cells.
//     That the heap picks Figure 2.1's victims is a ctest property
//     (LruKOracleEquivalence), not a bench check.
//
// Every row is timed in kRounds interleaved rounds inside one process:
// each row's policy is built and warmed once, then every round times each
// row once, starting one row later than the round before, so drift over
// the run (frequency, cache, a noisy neighbour) lands on every row alike.
// The table and the JSON give each row's median over the rounds with its
// quartiles; a single timing per row moved ~±15% between processes.
//
// Flags: --json <path>, --quick, and the provenance flags of
// bench_common.h (--git-sha/--build-type/--sanitizer, stamped into the
// JSON by run_quick.sh).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "sim/table.h"
#include "util/random.h"
#include "workload/zipfian_workload.h"

namespace lruk {
namespace {

constexpr size_t kCatalogCapacity = 1024;
constexpr int kRounds = 7;

// A row's timings over the rounds: the median and the quartiles (linear
// interpolation between order statistics).
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Spread SpreadOf(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
  };
  return Spread{at(0.25), at(0.5), at(0.75)};
}

// One timed row: a policy warmed on its trace, then stepped on from where
// its last round stopped.
struct TimedRow {
  std::string name;
  std::unique_ptr<ReplacementPolicy> policy;
  size_t capacity = 0;
  const std::vector<PageId>* trace = nullptr;
  size_t cursor = 0;
  std::vector<double> ns_per_ref;  // One per round.

  TimedRow(std::string label, std::unique_ptr<ReplacementPolicy> p,
           size_t frames, const std::vector<PageId>* refs)
      : name(std::move(label)),
        policy(std::move(p)),
        capacity(frames),
        trace(refs) {
    // One full pass warms the resident set.
    for (PageId page : *trace) {
      ReferenceStep(*policy, capacity, {.page = page});
    }
  }

  void TimeRound(uint64_t ops) {
    auto start = std::chrono::steady_clock::now();
    for (uint64_t n = 0; n < ops; ++n) {
      ReferenceStep(*policy, capacity, {.page = (*trace)[cursor]});
      if (++cursor == trace->size()) cursor = 0;
    }
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    ns_per_ref.push_back(seconds * 1e9 / static_cast<double>(ops));
  }
};

// Times every row kRounds times, `ops` steps each, round r starting at row
// r (mod the row count).
void RunRounds(std::vector<TimedRow>& rows, uint64_t ops) {
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[(i + static_cast<size_t>(round)) % rows.size()].TimeRound(ops);
    }
  }
}

// --- Part 1: catalog sweep -------------------------------------------------

std::vector<PageId> ZipfTrace(size_t length) {
  ZipfianOptions zopt;
  zopt.num_pages = 16384;
  zopt.seed = 77;
  ZipfianWorkload gen(zopt);
  return MaterializeTrace(gen, length);
}

// --- Part 2: lazy-heap throughput -------------------------------------------

// 95% uniform over a hot set that fits in the buffer, 5% uniform over a
// 10x-capacity cold range: a high hit rate (the regime the lazy heap
// optimizes) with a steady eviction trickle (so PickVictim is exercised).
std::vector<PageId> HotColdTrace(size_t resident, size_t length,
                                 uint64_t seed) {
  std::vector<PageId> trace;
  trace.reserve(length);
  RandomEngine rng(seed);
  uint64_t hot = resident * 3 / 4;
  uint64_t cold = resident * 10;
  for (size_t i = 0; i < length; ++i) {
    if (rng.NextBernoulli(0.95)) {
      trace.push_back(1 + rng.NextBounded(hot));
    } else {
      trace.push_back(1 + hot + rng.NextBounded(cold));
    }
  }
  return trace;
}

void WriteJson(const char* path, const BenchProvenance& provenance,
               const std::vector<TimedRow>& catalog,
               const std::vector<TimedRow>& heap_rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_policy_overhead\",\n");
  WriteProvenanceJson(f, provenance);
  std::fprintf(f,
               ",\n  \"rounds\": %d,\n  \"catalog_capacity\": %zu,\n"
               "  \"catalog\": [\n",
               kRounds, kCatalogCapacity);
  for (size_t i = 0; i < catalog.size(); ++i) {
    const Spread ns = SpreadOf(catalog[i].ns_per_ref);
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"ns_per_ref\": %.1f, "
                 "\"ns_per_ref_q1\": %.1f, \"ns_per_ref_q3\": %.1f}%s\n",
                 catalog[i].name.c_str(), ns.median, ns.q1, ns.q3,
                 i + 1 < catalog.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"lazy_heap_cells\": [\n");
  for (size_t i = 0; i < heap_rows.size(); ++i) {
    const TimedRow& row = heap_rows[i];
    const Spread ns = SpreadOf(row.ns_per_ref);
    std::fprintf(f,
                 "    {\"resident\": %zu, \"ops_per_sec\": %.1f, "
                 "\"ns_per_ref\": %.1f, \"ns_per_ref_q1\": %.1f, "
                 "\"ns_per_ref_q3\": %.1f}%s\n",
                 row.capacity, 1e9 / ns.median, ns.median, ns.q1, ns.q3,
                 i + 1 < heap_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
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

  // Steps per row per round.
  const uint64_t catalog_ops = quick ? 1 << 14 : 1 << 18;
  const uint64_t heap_ops = quick ? 1 << 15 : 1 << 18;
  const std::vector<size_t> resident_sizes = {512, 2048};

  // --- Catalog sweep ---
  std::printf(
      "Policy bookkeeping overhead: Zipfian 80-20, %zu frames, "
      "hit-or-admit step, %d interleaved rounds\n\n",
      kCatalogCapacity, kRounds);
  std::vector<PageId> zipf = ZipfTrace(1 << 16);
  auto spec = [](const char* text) {
    auto config = ParsePolicySpec(text);
    LRUK_ASSERT(config.ok(), "catalog spec failed to parse");
    return *config;
  };
  const std::vector<std::pair<std::string, PolicyConfig>> entries = {
      {"LRU", PolicyConfig::Lru()},
      {"LRU-2", PolicyConfig::LruK(2)},
      {"LRU-3", PolicyConfig::LruK(3)},
      {"LRU-2 CRP=16", PolicyConfig::LruK(2, /*crp=*/16)},
      {"LFU", PolicyConfig::Lfu()},
      {"FIFO", PolicyConfig::Of(PolicyKind::kFifo)},
      {"CLOCK", PolicyConfig::Of(PolicyKind::kClock)},
      {"GCLOCK", PolicyConfig::Of(PolicyKind::kGClock)},
      {"MRU", PolicyConfig::Of(PolicyKind::kMru)},
      {"RANDOM", PolicyConfig::Of(PolicyKind::kRandom)},
      {"2Q", PolicyConfig::TwoQ()},
      {"ARC", PolicyConfig::Arc()},
      {"adaptive:lruk2", spec("adaptive:lruk2")},
      {"adaptive:lruk2+lfu+mru", spec("adaptive:lruk2+lfu+mru")},
  };
  PolicyContext context;
  context.capacity = kCatalogCapacity;
  std::vector<TimedRow> catalog;
  for (const auto& [label, config] : entries) {
    auto policy = MakePolicy(config, context);
    LRUK_ASSERT(policy.ok(), "catalog policy failed to build");
    catalog.emplace_back(label, std::move(*policy), kCatalogCapacity, &zipf);
  }
  RunRounds(catalog, catalog_ops);
  AsciiTable catalog_table({"policy", "ns/ref (median)", "q1", "q3"});
  for (const TimedRow& row : catalog) {
    const Spread ns = SpreadOf(row.ns_per_ref);
    catalog_table.AddRow({row.name, AsciiTable::Fixed(ns.median, 1),
                          AsciiTable::Fixed(ns.q1, 1),
                          AsciiTable::Fixed(ns.q3, 1)});
  }
  catalog_table.Print();
  catalog_table.MaybeWriteCsvFromEnv("micro_policy_overhead_catalog");

  // --- Lazy-heap throughput ---
  std::printf(
      "\nLRU-2 lazy victim heap: 95%% hot / 5%% cold uniform stream, %d "
      "interleaved rounds\n\n",
      kRounds);
  std::vector<std::vector<PageId>> traces;
  for (size_t resident : resident_sizes) {
    traces.push_back(
        HotColdTrace(resident, 1 << 18, /*seed=*/0xBEEF + resident));
  }
  std::vector<TimedRow> heap_rows;
  for (size_t i = 0; i < resident_sizes.size(); ++i) {
    const size_t resident = resident_sizes[i];
    heap_rows.emplace_back(
        "LRU-2",
        std::make_unique<LruKPolicy>(
            LruKOptions{.k = 2, .capacity_hint = resident}),
        resident, &traces[i]);
  }
  RunRounds(heap_rows, heap_ops);
  AsciiTable grid(
      {"resident", "ops/sec (median)", "ns/ref (median)", "q1", "q3"});
  for (const TimedRow& row : heap_rows) {
    const Spread ns = SpreadOf(row.ns_per_ref);
    grid.AddRow({AsciiTable::Integer(row.capacity),
                 AsciiTable::Integer(static_cast<uint64_t>(1e9 / ns.median)),
                 AsciiTable::Fixed(ns.median, 1), AsciiTable::Fixed(ns.q1, 1),
                 AsciiTable::Fixed(ns.q3, 1)});
  }
  grid.Print();
  grid.MaybeWriteCsvFromEnv("micro_policy_overhead_index");

  if (json_path != nullptr) {
    WriteJson(json_path, provenance, catalog, heap_rows);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
