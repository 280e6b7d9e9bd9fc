// Frames vs. history blocks under one memory budget — the experiment the
// paper leaves as future work (Section 5): "It is an open issue how much
// space we should set aside for history control blocks of non-resident
// pages. ... a better approach would be to turn buffer frames into history
// control blocks dynamically, and vice versa."
//
// Workload: 64 metronome pages each re-referenced every 512 references
// (1/8 of traffic), the rest a stream of one-shot pages. The period
// exceeds any achievable residence time, so a metronome page is recognized
// ONLY via retained history — and its history block must survive ~512
// references of one-shot churn to be there at the refault. Frames beyond
// the 64 metronome pages are nearly worthless; history blocks beyond the
// survival horizon are worthless too. Under a fixed budget the optimum is
// interior: trade just enough frames for just enough history.
//
// The sweep converts spare frames to history blocks at the measured
// block-per-page rate and reports the metronome hit count per split.

#include <cstdio>
#include <vector>

#include "core/lru_k.h"
#include "sim/simulator.h"
#include "sim/table.h"
#include "workload/trace.h"

namespace {

constexpr uint64_t kMetronomePages = 64;
constexpr uint64_t kPeriod = 512;  // Refs between a page's visits.
constexpr uint64_t kTotalRefs = 200000;
constexpr size_t kBudgetPages = 96;  // Total memory in page-equivalents.

// One metronome page every kPeriod / kMetronomePages references, one-shot
// filler pages in between.
std::vector<lruk::AccessRecord> MetronomeMixTrace() {
  std::vector<lruk::AccessRecord> refs;
  refs.reserve(kTotalRefs);
  lruk::PageId filler = kMetronomePages;
  uint64_t stride = kPeriod / kMetronomePages;  // 8.
  for (uint64_t t = 0; t < kTotalRefs; ++t) {
    if (t % stride == 0) {
      refs.push_back({.page = (t / stride) % kMetronomePages,
                      .type = lruk::AccessType::kRead});
    } else {
      refs.push_back({.page = filler++, .type = lruk::AccessType::kRead});
    }
  }
  return refs;
}

}  // namespace

int main() {
  using namespace lruk;

  // Measure the history-block unit cost so the budget conversion is honest.
  size_t bytes_per_block;
  {
    LruKOptions probe_options;
    probe_options.k = 2;
    LruKPolicy probe(probe_options);
    probe.Admit(0, AccessType::kRead);
    bytes_per_block = probe.HistoryMemoryBytes();
  }
  size_t blocks_per_page = 4096 / bytes_per_block;

  std::printf("Memory budget ablation: %zu page-equivalents total; "
              "history blocks cost %zu bytes (%zu per page).\n",
              kBudgetPages, bytes_per_block, blocks_per_page);
  std::printf("Workload: %llu metronome pages every %llu refs (ceiling "
              "%.3f hit ratio) in one-shot filler traffic; LRU-2.\n\n",
              static_cast<unsigned long long>(kMetronomePages),
              static_cast<unsigned long long>(kPeriod),
              1.0 / (kPeriod / kMetronomePages));

  AsciiTable table({"frames", "history-blocks", "hit-ratio",
                    "history-blocks-used"});
  double best_ratio = 0.0;
  size_t best_frames = 0;
  double all_frames_ratio = 0.0;

  for (size_t frames : {66UL, 70UL, 74UL, 78UL, 82UL, 86UL, 90UL, 96UL}) {
    size_t history_blocks = (kBudgetPages - frames) * blocks_per_page;

    TraceWorkload gen(MetronomeMixTrace());
    LruKOptions options;
    options.k = 2;
    options.max_nonresident_history = history_blocks;
    if (history_blocks == 0) {
      // No budget for history at all: expire it immediately and let the
      // demon reclaim the blocks each period.
      options.retained_information_period = 1;
      options.purge_interval = 64;
    }
    LruKPolicy policy(options);

    SimOptions sim;
    sim.capacity = frames;
    sim.warmup_refs = 4 * kPeriod;
    sim.measure_refs = kTotalRefs - 4 * kPeriod;
    sim.track_classes = false;
    SimResult result = RunSimulation(policy, gen, sim);

    double ratio = result.HitRatio();
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_frames = frames;
    }
    if (frames == kBudgetPages) all_frames_ratio = ratio;
    table.AddRow({AsciiTable::Integer(frames),
                  AsciiTable::Integer(history_blocks),
                  AsciiTable::Fixed(ratio, 4),
                  AsciiTable::Integer(policy.NonResidentHistorySize())});
  }
  table.Print();

  std::printf("\nshape: the optimum is interior — sacrificing frames for "
              "history (best %.4f at %zu frames) beats spending the whole "
              "budget on frames (%.4f at %zu): %s\n",
              best_ratio, best_frames, all_frames_ratio, kBudgetPages,
              best_frames < kBudgetPages && best_ratio > all_frames_ratio + 0.02
                  ? "yes"
                  : "NO");
  return 0;
}
