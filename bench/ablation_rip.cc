// Retained Information Period ablation (Section 2.1.2). Two workloads:
//
//  1. Metronome: page 0 recurs every 32 references inside a stream of
//     one-shot pages, with a 16-page buffer — the Section 5 scenario where
//     "a page referenced with metronome-like regularity at intervals just
//     above its residence period" is only ever recognized if history
//     outlives residence. The hit count is 0 until the RIP covers the
//     metronome period.
//
//  2. Two-pool: the full tradeoff curve, including a subtle second-order
//     effect: retained history also retains *noise*. About 2.5% of cold
//     faults are coincidentally re-referenced within a few hundred
//     references; with a long RIP these lucky pairs look exactly like hot
//     pages (small b_t(p,2)) and squat in churn slots, occasionally
//     displacing a genuinely hot page whose recent gap was unluckily
//     long. On this workload the effect costs ~1.5% hit ratio at RIP=inf
//     versus RIP=1 — while on the metronome workload of part (a) a short
//     RIP costs *all* the hits. Sizing the RIP (the paper suggests ~2x
//     the Five Minute Rule break-even) is exactly this balance, plus the
//     history-table memory reported in the last column (the paper's open
//     question about history-block space).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "sim/table.h"
#include "workload/trace.h"
#include "workload/two_pool.h"

namespace {

// Builds the metronome trace: page 0 every `period`, fresh pages between.
std::vector<lruk::AccessRecord> MetronomeTrace(uint64_t period,
                                               uint64_t total) {
  std::vector<lruk::AccessRecord> refs;
  refs.reserve(total);
  lruk::PageId fresh = 1;
  for (uint64_t t = 0; t < total; ++t) {
    if (t % period == 0) {
      refs.push_back({.page = 0, .type = lruk::AccessType::kRead});
    } else {
      refs.push_back({.page = fresh++, .type = lruk::AccessType::kRead});
    }
  }
  return refs;
}

}  // namespace

int main() {
  using namespace lruk;

  const std::vector<Timestamp> kRips = {1,   16,  33,  64,   128,
                                        256, 512, 1024, kInfinitePeriod};
  auto rip_label = [](Timestamp rip) {
    return rip == kInfinitePeriod ? std::string("inf")
                                  : AsciiTable::Integer(rip);
  };

  // --- Metronome workload ---
  constexpr uint64_t kPeriod = 32;
  constexpr uint64_t kTotal = 6400;
  std::printf("RIP ablation (a): metronome page every %llu refs, one-shot "
              "filler, B=16, LRU-2\n\n",
              static_cast<unsigned long long>(kPeriod));
  AsciiTable metro({"RIP", "metronome-hits", "history-blocks"});
  for (Timestamp rip : kRips) {
    TraceWorkload gen(MetronomeTrace(kPeriod, kTotal));
    PolicyConfig config = PolicyConfig::LruK(2, 0, rip);
    PolicyContext context;
    auto policy = MakePolicy(config, context);
    if (!policy.ok()) return 1;
    auto* lru_k = static_cast<LruKPolicy*>(policy->get());
    SimOptions sim;
    sim.capacity = 16;
    sim.warmup_refs = 0;
    sim.measure_refs = kTotal;
    sim.track_classes = false;
    SimResult result = RunSimulation(**policy, gen, sim);
    lru_k->PurgeHistory();
    metro.AddRow({rip_label(rip), AsciiTable::Integer(result.hits),
                  AsciiTable::Integer(lru_k->HistorySize())});
  }
  metro.Print();
  std::printf("\n(hits jump once RIP >= %llu, the metronome period; "
              "history size is the memory the RIP buys back)\n\n",
              static_cast<unsigned long long>(kPeriod + 1));

  // --- Two-pool workload ---
  TwoPoolOptions topt;
  topt.n1 = 100;
  topt.n2 = 10000;
  topt.seed = 19939;
  std::printf("RIP ablation (b): two-pool N1=100 N2=10000 (hot "
              "interarrival ~200), B=110, LRU-2\n\n");
  AsciiTable pool({"RIP", "hit-ratio", "history-blocks", "history-KiB"});
  std::vector<double> ratios;
  for (Timestamp rip : kRips) {
    TwoPoolWorkload gen(topt);
    PolicyConfig config = PolicyConfig::LruK(2, 0, rip);
    auto policy = MakePolicy(config, PolicyContext{});
    if (!policy.ok()) return 1;
    auto* lru_k = static_cast<LruKPolicy*>(policy->get());
    SimOptions sim;
    sim.capacity = 110;
    sim.warmup_refs = 2000;
    sim.measure_refs = 60000;
    sim.track_classes = false;
    SimResult result = RunSimulation(**policy, gen, sim);
    lru_k->PurgeHistory();
    ratios.push_back(result.HitRatio());
    pool.AddRow({rip_label(rip), AsciiTable::Fixed(result.HitRatio(), 3),
                 AsciiTable::Integer(lru_k->HistorySize()),
                 AsciiTable::Integer(lru_k->HistoryMemoryBytes() / 1024)});
  }
  pool.Print();
  double lo = *std::min_element(ratios.begin(), ratios.end());
  double hi = *std::max_element(ratios.begin(), ratios.end());
  std::printf("\nshape: on this stationary workload the RIP moves the hit "
              "ratio by only %.3f (%.3f..%.3f) while history memory spans "
              "110 -> ~9700 blocks: %s\n",
              hi - lo, lo, hi, hi - lo < 0.05 ? "yes" : "NO");
  std::printf("note: the small *decline* toward RIP=inf is retained noise "
              "(see header); the paper's guideline of ~2x the break-even "
              "interarrival (~RIP 400 here) keeps the metronome benefit "
              "of part (a) without most of the memory cost.\n");
  return 0;
}
