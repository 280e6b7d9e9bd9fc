// Uniform construction of replacement policies for sweeps and benches.
//
// Some policies need context beyond their own knobs: 2Q sizes its queues
// from the buffer capacity, A0 needs the workload's true probability
// vector, and Belady needs the full future trace. PolicyContext carries
// all three; factories ignore what they don't need.

#ifndef LRUK_CORE_POLICY_FACTORY_H_
#define LRUK_CORE_POLICY_FACTORY_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/domain_separation.h"
#include "core/gclock.h"
#include "core/lfu.h"
#include "core/lrd.h"
#include "core/lru_k.h"
#include "core/replacement_policy.h"
#include "core/two_q.h"
#include "util/status.h"

namespace lruk {

enum class PolicyKind {
  kLru,
  kLruK,
  kLfu,
  kFifo,
  kClock,
  kGClock,
  kLrd,
  kMru,
  kRandom,
  kTwoQ,
  kArc,
  kDomainSeparation,
  kA0,
  kBelady,
  kAdaptive,
};

struct PolicyConfig;

// kAdaptive: the expert list plus the meta-policy's switching knobs
// (mirrors AdaptivePolicyOptions; the ghost capacity always comes
// from PolicyContext::capacity). std::vector of the enclosing,
// still-incomplete PolicyConfig is legal since C++17 — experts cannot
// themselves be adaptive (MakePolicy rejects nesting).
struct AdaptiveConfig {
  std::vector<PolicyConfig> experts;
  // Display names, parallel to `experts` (stats, Name()). Missing entries
  // fall back to the built expert's own Name().
  std::vector<std::string> expert_names;
  uint64_t window_refs = 4096;
  size_t window_buckets = 8;
  double switch_margin = 0.10;
  uint64_t min_window_misses = 16;
  uint64_t cooldown_refs = 1024;
};

// Everything needed to build any policy in the catalog.
struct PolicyConfig {
  PolicyKind kind = PolicyKind::kLru;
  // Only consulted by the matching policy kind:
  LruKOptions lru_k;       // kLruK
  LfuOptions lfu;          // kLfu
  GClockOptions gclock;    // kGClock
  LrdOptions lrd;          // kLrd
  TwoQOptions two_q;       // kTwoQ (capacity filled from context if 0)
  // kArc: capacity; 0 = take PolicyContext::capacity.
  size_t arc_capacity = 0;
  // kDomainSeparation: classifier + per-domain frame counts.
  DomainSeparationOptions domain_separation;
  uint64_t random_seed = 0xC0FFEE;  // kRandom
  // kAdaptive: expert list + meta knobs.
  AdaptiveConfig adaptive;

  // Convenience constructors for the common cases.
  static PolicyConfig Of(PolicyKind kind) {
    PolicyConfig c;
    c.kind = kind;
    return c;
  }
  static PolicyConfig Lru() { return Of(PolicyKind::kLru); }
  static PolicyConfig LruK(int k, Timestamp crp = 0,
                           Timestamp rip = kInfinitePeriod) {
    PolicyConfig c = Of(PolicyKind::kLruK);
    c.lru_k.k = k;
    c.lru_k.correlated_reference_period = crp;
    c.lru_k.retained_information_period = rip;
    return c;
  }
  static PolicyConfig Lfu() { return Of(PolicyKind::kLfu); }
  static PolicyConfig A0() { return Of(PolicyKind::kA0); }
  static PolicyConfig Belady() { return Of(PolicyKind::kBelady); }
  static PolicyConfig TwoQ() { return Of(PolicyKind::kTwoQ); }
  static PolicyConfig Arc() { return Of(PolicyKind::kArc); }
  static PolicyConfig Adaptive(std::vector<PolicyConfig> experts,
                               std::vector<std::string> expert_names = {}) {
    PolicyConfig c = Of(PolicyKind::kAdaptive);
    c.adaptive.experts = std::move(experts);
    c.adaptive.expert_names = std::move(expert_names);
    return c;
  }
};

// Per-experiment context the factory may consult.
struct PolicyContext {
  // Buffer capacity in pages (2Q queue sizing).
  size_t capacity = 0;
  // True per-page reference probabilities (A0). Indexed by PageId.
  std::vector<double> probabilities;
  // The exact upcoming reference string (Belady).
  std::vector<PageId> trace;
};

// Builds the configured policy. Returns an error status when a required
// context field is missing (e.g. A0 without probabilities).
Result<std::unique_ptr<ReplacementPolicy>> MakePolicy(
    const PolicyConfig& config, const PolicyContext& context);

// Builds one policy instance per buffer-pool shard: invoked as
// factory(shard_index, shard_capacity), must return a fresh, non-null
// policy on every call. ShardedBufferPool calls it once per shard;
// custom policies can be supplied with a hand-written lambda.
using ShardPolicyFactory = std::function<std::unique_ptr<ReplacementPolicy>(
    size_t shard_index, size_t shard_capacity)>;

// Adapts a PolicyConfig into a ShardPolicyFactory: every shard gets an
// independent policy built from `config`, with PolicyContext::capacity
// rewritten to the shard's own frame count (so 2Q/ARC size their queues
// per shard); the rest of `context` (A0 probabilities, Belady trace) is
// shared as-is. The config is validated eagerly — a misconfiguration
// surfaces here as a Status, not later inside a shard.
Result<ShardPolicyFactory> MakeShardPolicyFactory(const PolicyConfig& config,
                                                  PolicyContext context = {});

// Parses a policy spec string. Simple names: "LRU", "LRU-2", "LRU-3",
// "LFU", "FIFO", "CLOCK", "GCLOCK", "LRD", "MRU", "RANDOM", "2Q", "ARC",
// "A0", "B0"/"BELADY" (case insensitive; LRU-K also accepts the compact
// "LRUK2" form, with 1 <= K <= kMaxHistoryK). Adaptive meta-policy specs:
// "adaptive:lruk2+arc+2q" — experts joined by '+', each any simple name
// except A0/Belady (they need oracle context). On failure the Status
// names the offending token (unknown expert, out-of-range K, nested
// adaptive, empty expert list). DOMAIN-SEP is not parseable — it needs a
// programmatic classifier.
Result<PolicyConfig> ParsePolicySpec(const std::string& spec);

// Thin wrapper over ParsePolicySpec for callers that only care about
// success: nullopt on any parse error.
std::optional<PolicyConfig> ParsePolicyName(const std::string& name);

}  // namespace lruk

#endif  // LRUK_CORE_POLICY_FACTORY_H_
