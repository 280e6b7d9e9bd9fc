// Counters exported by meta-policies (currently only AdaptivePolicy).
//
// Kept in a header of its own so `ReplacementPolicy` can expose a virtual
// `GetMetaStats()` accessor without dragging the adaptive machinery into
// every policy translation unit. Plain policies return a default-constructed
// snapshot (`adaptive == false`); pools forward whatever the policy reports
// and the sharded pool merges shard snapshots with `operator+=`.

#ifndef LRUK_CORE_META_STATS_H_
#define LRUK_CORE_META_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lruk {

// Per-expert regret counters. `ghost_misses` is the cumulative
// would-have-missed count of the expert's ghost cache over the observed
// reference stream; `window_misses` is the same signal restricted to the
// sliding regret window the switch decision reads.
struct MetaExpertStats {
  std::string name;
  uint64_t ghost_misses = 0;
  uint64_t window_misses = 0;
  // References observed while this expert was the live victim selector.
  uint64_t active_refs = 0;
  // Times a switch decision landed on this expert (including the initial
  // selection of expert 0 only if a switch explicitly re-selected it).
  uint64_t selections = 0;
};

struct MetaPolicyStats {
  // False for plain policies; true when a meta-policy produced the snapshot.
  bool adaptive = false;
  // Index (into `experts`) of the expert currently selecting victims. After
  // a sharded merge this is the first shard's choice — shards adapt
  // independently, so per-shard snapshots are the precise view.
  size_t active_expert = 0;
  uint64_t switches = 0;
  // Switch evaluations performed (bucket rotations that passed cooldown).
  uint64_t evaluations = 0;
  // Live-stream misses (admissions) in the current window / in total.
  uint64_t window_misses = 0;
  uint64_t total_misses = 0;
  std::vector<MetaExpertStats> experts;

  // Shard merge: sums counters element-wise by expert index. Expert lists
  // are expected to be congruent (same factory spec per shard); names from
  // the first non-empty snapshot win.
  MetaPolicyStats& operator+=(const MetaPolicyStats& other) {
    adaptive = adaptive || other.adaptive;
    switches += other.switches;
    evaluations += other.evaluations;
    window_misses += other.window_misses;
    total_misses += other.total_misses;
    if (experts.size() < other.experts.size()) {
      experts.resize(other.experts.size());
    }
    for (size_t i = 0; i < other.experts.size(); ++i) {
      if (experts[i].name.empty()) experts[i].name = other.experts[i].name;
      experts[i].ghost_misses += other.experts[i].ghost_misses;
      experts[i].window_misses += other.experts[i].window_misses;
      experts[i].active_refs += other.experts[i].active_refs;
      experts[i].selections += other.experts[i].selections;
    }
    return *this;
  }
};

}  // namespace lruk

#endif  // LRUK_CORE_META_STATS_H_
