// The adaptive meta-policy (core/adaptive_policy.h), its spec grammar
// (core/policy_factory.h), and the MetaStats plumbing through both pools.
//
// Coverage layers:
//  * Ghost-exactness grid — each expert's ghost cache, fed through the
//    meta-policy, produces a victim sequence and miss count byte-identical
//    to the standalone expert driven through the same reference loop at
//    the same capacity (experts x capacities x seeds, 20k-op traces).
//  * Switch hysteresis units — a dominated incumbent is switched out; the
//    margin, the minimum-miss floor, and the cooldown each independently
//    veto the switch; identical experts never flap; switches never happen
//    inside EvictBatch (they run on reference ticks only).
//  * Restore routing — a victim nominated before an expert switch is
//    Restored into its nominating expert exactly; the others re-admit.
//  * Fixed-expert differential — `adaptive:lruk2` is byte-identical to
//    plain `lruk2` through the shared 20k-op scenario harness, across the
//    plain pool, the sharded pool and the optimistic pool.
//  * Spec grammar — positive parses for `adaptive:`, and negative parses
//    that name the offending token.
//  * MetaStats plumbing — BufferPool::MetaStats() and the sharded merge.

#include <memory>
#include <string>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/sharded_buffer_pool.h"
#include "core/adaptive_policy.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk {
namespace {

using difftest::AllocateDb;
using difftest::DiffScenarioConfig;
using difftest::DiffScenarioResult;
using difftest::ExpectScenarioEq;
using difftest::RunDiffScenario;

// ---------------------------------------------------------------------------
// Helpers.

std::unique_ptr<ReplacementPolicy> BuildPolicy(const std::string& spec,
                                               size_t capacity) {
  auto config = ParsePolicySpec(spec);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  PolicyContext context;
  context.capacity = capacity;
  auto policy = MakePolicy(*config, context);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  return std::move(*policy);
}

// Direct construction (the factory does not expose every test knob, e.g.
// record_ghost_victims, or deliberately rejects duplicate experts).
std::unique_ptr<AdaptivePolicy> BuildAdaptive(
    const std::vector<std::string>& expert_specs,
    AdaptivePolicyOptions options) {
  std::vector<AdaptiveExpert> experts;
  for (const std::string& spec : expert_specs) {
    experts.push_back({spec, BuildPolicy(spec, options.capacity),
                       BuildPolicy(spec, options.capacity)});
  }
  return std::make_unique<AdaptivePolicy>(std::move(experts), options);
}

std::vector<PageId> ZipfTrace(size_t pages, int len, uint64_t seed) {
  RecursiveSkewDistribution dist(0.8, 0.2, pages);
  RandomEngine rng(seed);
  std::vector<PageId> trace;
  trace.reserve(len);
  for (int i = 0; i < len; ++i) {
    trace.push_back(static_cast<PageId>(dist.Sample(rng) - 1));
  }
  return trace;
}

std::vector<PageId> CyclicTrace(size_t pages, int len) {
  std::vector<PageId> trace;
  trace.reserve(len);
  for (int i = 0; i < len; ++i) {
    trace.push_back(static_cast<PageId>(i % pages));
  }
  return trace;
}

// Drives `policy` through the simulator's reference loop (the loop the
// ghost caches mirror — see AdaptivePolicy::ObserveGhost): resident pages
// get RecordAccess, misses evict-at-capacity then Admit. Returns the miss
// count; appends each victim to *victims when given.
uint64_t DriveReferenceSim(ReplacementPolicy& policy,
                           const std::vector<PageId>& trace, size_t capacity,
                           std::vector<PageId>* victims = nullptr) {
  uint64_t misses = 0;
  for (PageId p : trace) {
    policy.SetReferencingProcess(0);
    if (policy.IsResident(p)) {
      policy.RecordAccess(p, AccessType::kRead);
      continue;
    }
    ++misses;
    policy.PrepareAdmit(p);
    if (policy.ResidentCount() >= capacity) {
      std::optional<PageId> victim = policy.Evict();
      EXPECT_TRUE(victim.has_value());
      if (victims != nullptr && victim.has_value()) {
        victims->push_back(*victim);
      }
    }
    policy.Admit(p, AccessType::kRead);
  }
  return misses;
}

// ---------------------------------------------------------------------------
// Ghost-exactness grid: every ghost byte-identical to the standalone
// expert on the same reference stream.

TEST(AdaptiveGhostTest, GhostVictimSequencesMatchStandaloneExperts) {
  const std::vector<std::string> experts = {"lruk2", "arc", "2q", "lfu"};
  for (size_t capacity : {size_t{16}, size_t{48}}) {
    for (uint64_t seed : {uint64_t{1}, uint64_t{42}, uint64_t{20260809}}) {
      SCOPED_TRACE("capacity=" + std::to_string(capacity) +
                   " seed=" + std::to_string(seed));
      std::vector<PageId> trace =
          ZipfTrace(/*pages=*/4 * capacity, /*len=*/20000, seed);

      AdaptivePolicyOptions options;
      options.capacity = capacity;
      options.record_ghost_victims = true;
      auto meta = BuildAdaptive(experts, options);
      DriveReferenceSim(*meta, trace, capacity);

      for (size_t i = 0; i < experts.size(); ++i) {
        SCOPED_TRACE("expert=" + experts[i]);
        auto standalone = BuildPolicy(experts[i], capacity);
        std::vector<PageId> victims;
        uint64_t misses =
            DriveReferenceSim(*standalone, trace, capacity, &victims);
        EXPECT_EQ(meta->ghost_misses(i), misses);
        EXPECT_EQ(meta->ghost_victims(i), victims);
      }
    }
  }
}

TEST(AdaptiveGhostTest, WindowSumsNeverExceedCumulativeMisses) {
  AdaptivePolicyOptions options;
  options.capacity = 16;
  options.window_refs = 512;
  options.window_buckets = 4;
  auto meta = BuildAdaptive({"lruk2", "lfu"}, options);
  std::vector<PageId> trace = ZipfTrace(/*pages=*/64, /*len=*/6000, 7);
  uint64_t meta_misses = DriveReferenceSim(*meta, trace, options.capacity);
  EXPECT_EQ(meta->total_meta_misses(), meta_misses);
  for (size_t i = 0; i < meta->num_experts(); ++i) {
    EXPECT_LE(meta->window_ghost_misses(i), meta->ghost_misses(i));
    EXPECT_GT(meta->ghost_misses(i), 0u);
  }
  EXPECT_LE(meta->window_meta_misses(), meta->total_meta_misses());
}

// ---------------------------------------------------------------------------
// Switch hysteresis.

// On a cyclic scan one page longer than the window of retained pages, LRU
// misses every reference while MRU stabilizes — a textbook dominated
// incumbent (paper Section 3.2's sequential-flooding motivation).
AdaptivePolicyOptions ScanOptions() {
  AdaptivePolicyOptions options;
  options.capacity = 16;
  options.window_refs = 256;
  options.window_buckets = 4;
  options.min_window_misses = 8;
  options.cooldown_refs = 64;
  options.switch_margin = 0.10;
  return options;
}

TEST(AdaptiveSwitchTest, DominatedIncumbentIsSwitchedOut) {
  AdaptivePolicyOptions options = ScanOptions();
  auto meta = BuildAdaptive({"lru", "mru"}, options);
  EXPECT_EQ(meta->active_expert(), 0u);
  std::vector<PageId> trace = CyclicTrace(/*pages=*/24, /*len=*/4000);
  DriveReferenceSim(*meta, trace, options.capacity);
  EXPECT_EQ(meta->active_expert(), 1u);  // MRU won.
  EXPECT_GE(meta->switches(), 1u);
  EXPECT_GT(meta->evaluations(), 0u);
  EXPECT_LT(meta->window_ghost_misses(1), meta->window_ghost_misses(0));
}

TEST(AdaptiveSwitchTest, CooldownVetoesTheSwitch) {
  AdaptivePolicyOptions options = ScanOptions();
  options.cooldown_refs = 1u << 30;  // Longer than the trace.
  auto meta = BuildAdaptive({"lru", "mru"}, options);
  DriveReferenceSim(*meta, CyclicTrace(24, 4000), options.capacity);
  EXPECT_EQ(meta->switches(), 0u);
  EXPECT_EQ(meta->active_expert(), 0u);
  EXPECT_EQ(meta->evaluations(), 0u);  // Cooldown gates the evaluation too.
}

TEST(AdaptiveSwitchTest, MinWindowMissFloorVetoesTheSwitch) {
  AdaptivePolicyOptions options = ScanOptions();
  options.min_window_misses = 1u << 30;
  auto meta = BuildAdaptive({"lru", "mru"}, options);
  DriveReferenceSim(*meta, CyclicTrace(24, 4000), options.capacity);
  EXPECT_EQ(meta->switches(), 0u);
  EXPECT_GT(meta->evaluations(), 0u);  // Evaluated, vetoed.
}

TEST(AdaptiveSwitchTest, MarginVetoesANarrowWin) {
  AdaptivePolicyOptions options = ScanOptions();
  // MRU's steady-state miss ratio on this cycle is well above 1% of
  // LRU's 100%, so a 0.99 margin (challenger must cut misses by 99%)
  // blocks the switch that the 0.10 margin allows.
  options.switch_margin = 0.99;
  auto meta = BuildAdaptive({"lru", "mru"}, options);
  DriveReferenceSim(*meta, CyclicTrace(24, 4000), options.capacity);
  EXPECT_EQ(meta->switches(), 0u);
  EXPECT_GT(meta->evaluations(), 0u);
}

TEST(AdaptiveSwitchTest, IdenticalExpertsNeverFlap) {
  AdaptivePolicyOptions options = ScanOptions();
  auto meta = BuildAdaptive({"lru", "lru"}, options);
  DriveReferenceSim(*meta, CyclicTrace(24, 4000), options.capacity);
  EXPECT_EQ(meta->switches(), 0u);  // Strict < keeps ties on the incumbent.
  EXPECT_EQ(meta->active_expert(), 0u);
  EXPECT_EQ(meta->window_ghost_misses(0), meta->window_ghost_misses(1));
}

TEST(AdaptiveSwitchTest, NoSwitchHappensInsideEvictBatch) {
  // Interleave EvictBatch + Restore pairs with the reference stream that
  // provokes switching: the active expert may only change on reference
  // ticks, never across a batch nomination (an LRUK_ASSERT inside the
  // policy backstops this; here we also observe it from the outside).
  AdaptivePolicyOptions options = ScanOptions();
  auto meta = BuildAdaptive({"lru", "mru"}, options);
  std::vector<PageId> trace = CyclicTrace(24, 4000);
  uint64_t switches_seen = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    PageId p = trace[i];
    meta->SetReferencingProcess(0);
    if (meta->IsResident(p)) {
      meta->RecordAccess(p, AccessType::kRead);
    } else {
      meta->PrepareAdmit(p);
      if (meta->ResidentCount() >= options.capacity) {
        ASSERT_TRUE(meta->Evict().has_value());
      }
      meta->Admit(p, AccessType::kRead);
    }
    if (i % 37 == 36) {
      size_t active_before = meta->active_expert();
      std::vector<PageId> nominated;
      meta->EvictBatch(2, &nominated);
      EXPECT_EQ(meta->active_expert(), active_before);
      // Undo the peek, write-behind style: nominees come back.
      for (auto it = nominated.rbegin(); it != nominated.rend(); ++it) {
        meta->Restore(*it);
      }
    }
    switches_seen = meta->switches();
  }
  EXPECT_GE(switches_seen, 1u);  // Switching did happen — on ticks.
}

TEST(AdaptiveRestoreTest, RestoreRoutesToTheNominatingExpert) {
  AdaptivePolicyOptions options = ScanOptions();
  auto meta = BuildAdaptive({"lru", "mru"}, options);
  std::vector<PageId> trace = CyclicTrace(24, 2000);
  DriveReferenceSim(*meta, trace, options.capacity);

  // The cyclic warm-up put MRU in charge. Nominate a victim under it,
  // then feed a skewed stream (where MRU is the worst expert) until the
  // meta-policy switches back to LRU, then Restore.
  ASSERT_EQ(meta->active_expert(), 1u);
  size_t nominator = meta->active_expert();
  std::optional<PageId> victim = meta->Evict();
  ASSERT_TRUE(victim.has_value());
  EXPECT_FALSE(meta->expert_live(0).IsResident(*victim));
  EXPECT_FALSE(meta->expert_live(1).IsResident(*victim));

  uint64_t switches_before = meta->switches();
  std::vector<PageId> more = ZipfTrace(/*pages=*/48, /*len=*/8000, 5);
  for (PageId p : more) {
    if (p == *victim) continue;  // Keep the in-flight victim in flight.
    if (meta->switches() != switches_before) break;
    meta->SetReferencingProcess(0);
    if (meta->IsResident(p)) {
      meta->RecordAccess(p, AccessType::kRead);
    } else {
      meta->PrepareAdmit(p);
      if (meta->ResidentCount() >= options.capacity) {
        ASSERT_TRUE(meta->Evict().has_value());
      }
      meta->Admit(p, AccessType::kRead);
    }
  }
  ASSERT_NE(meta->switches(), switches_before) << "no switch provoked";
  ASSERT_NE(meta->active_expert(), nominator);

  // The delayed Restore still lands in the nominating expert (exactly)
  // and re-admits into the rest: the page is resident everywhere.
  meta->Restore(*victim);
  EXPECT_TRUE(meta->IsResident(*victim));
  EXPECT_TRUE(meta->expert_live(0).IsResident(*victim));
  EXPECT_TRUE(meta->expert_live(1).IsResident(*victim));
}

// ---------------------------------------------------------------------------
// Fixed-expert differential: `adaptive:lruk2` == plain `lruk2`, byte for
// byte, through every pool configuration the harness drives.

difftest::MakePolicyFn SpecPolicy(std::string spec) {
  return [spec = std::move(spec)](size_t, size_t capacity) {
    return BuildPolicy(spec, capacity);
  };
}

// The adaptive wrapper is not an LruKPolicy, so the harness reports its
// clock slot as 0; compare everything else byte-for-byte.
void ExpectScenarioEqModuloClocks(DiffScenarioResult a, DiffScenarioResult b) {
  a.clocks.assign(a.clocks.size(), 0);
  b.clocks.assign(b.clocks.size(), 0);
  ExpectScenarioEq(a, b);
}

TEST(AdaptiveDifferentialTest, SingleExpertAdaptiveMatchesPlainLruK) {
  struct Case {
    const char* name;
    DiffScenarioConfig config;
  };
  const Case cases[] = {
      {"plain", {}},
      {"sharded", {.sharded = true}},
      {"optimistic", {.optimistic = true}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    DiffScenarioConfig plain = c.config;
    plain.make_policy = SpecPolicy("lruk2");
    DiffScenarioConfig adaptive = c.config;
    adaptive.make_policy = SpecPolicy("adaptive:lruk2");
    ExpectScenarioEqModuloClocks(RunDiffScenario(plain),
                                 RunDiffScenario(adaptive));
  }
}

// ---------------------------------------------------------------------------
// Spec grammar.

void ExpectParseError(const std::string& spec, const std::string& needle) {
  auto parsed = ParsePolicySpec(spec);
  ASSERT_FALSE(parsed.ok()) << spec << " parsed unexpectedly";
  EXPECT_NE(parsed.status().message().find(needle), std::string::npos)
      << "spec '" << spec << "': error was: " << parsed.status().message();
}

TEST(AdaptiveSpecTest, ParsesExpertLists) {
  auto parsed = ParsePolicySpec("adaptive:lruk2+arc+2q");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, PolicyKind::kAdaptive);
  ASSERT_EQ(parsed->adaptive.experts.size(), 3u);
  EXPECT_EQ(parsed->adaptive.experts[0].kind, PolicyKind::kLruK);
  EXPECT_EQ(parsed->adaptive.experts[0].lru_k.k, 2);
  EXPECT_EQ(parsed->adaptive.experts[1].kind, PolicyKind::kArc);
  EXPECT_EQ(parsed->adaptive.experts[2].kind, PolicyKind::kTwoQ);
  ASSERT_EQ(parsed->adaptive.expert_names.size(), 3u);
  EXPECT_EQ(parsed->adaptive.expert_names[0], "lruk2");

  auto upper = ParsePolicySpec("ADAPTIVE:lru-3+lfu");
  ASSERT_TRUE(upper.ok()) << upper.status().ToString();
  ASSERT_EQ(upper->adaptive.experts.size(), 2u);
  EXPECT_EQ(upper->adaptive.experts[0].lru_k.k, 3);

  // The parsed config actually builds, and Name() reflects the experts.
  PolicyContext context;
  context.capacity = 8;
  auto policy = MakePolicy(*parsed, context);
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ((*policy)->Name(), "adaptive(lruk2+arc+2q)");
}

TEST(AdaptiveSpecTest, ErrorsNameTheOffendingToken) {
  ExpectParseError("adaptive", "must list experts");
  ExpectParseError("adaptive:", "lists no experts");
  ExpectParseError("adaptive-tuned:", "must list experts");
  ExpectParseError("adaptive-tuned:lruk2+lfu", "must list experts");
  ExpectParseError("adaptive:lruk2+", "empty expert token");
  ExpectParseError("adaptive:+lruk2", "empty expert token");
  ExpectParseError("adaptive:bogus", "unknown policy name 'bogus'");
  ExpectParseError("adaptive:lruk2+adaptive:lfu", "nests another adaptive");
  ExpectParseError("adaptive:a0", "'a0' needs oracle context");
  ExpectParseError("adaptive:lruk2+belady", "'belady' needs oracle context");
  ExpectParseError("adaptive:lruk2+lruk2", "duplicate expert 'lruk2'");
  ExpectParseError("adaptive:lru-2+lruk2", "duplicate expert 'lruk2'");
  ExpectParseError("adaptive:2q+twoq", "duplicate expert 'twoq'");
  ExpectParseError("adaptive:lruk0", "depth must be between 1 and");
  ExpectParseError("adaptive:lru-99", "depth must be between 1 and");
  ExpectParseError("adaptive:lru-x", "malformed LRU-K depth");
  ExpectParseError("lru-", "missing LRU-K depth");
  ExpectParseError("xyz", "unknown policy name 'xyz'");
  // One adaptive prefix exists, and the error advertises only it.
  auto bare = ParsePolicySpec("adaptive");
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().message().find("tuned"), std::string::npos);
}

TEST(AdaptiveSpecTest, FactoryRejectsMisconfiguredAdaptive) {
  PolicyContext no_capacity;  // capacity = 0.
  auto parsed = ParsePolicySpec("adaptive:lruk2+lfu");
  ASSERT_TRUE(parsed.ok());
  auto policy = MakePolicy(*parsed, no_capacity);
  ASSERT_FALSE(policy.ok());
  EXPECT_NE(policy.status().message().find("needs a capacity"),
            std::string::npos);

  PolicyConfig nested = PolicyConfig::Adaptive({*parsed});
  PolicyContext context;
  context.capacity = 8;
  auto nested_policy = MakePolicy(nested, context);
  ASSERT_FALSE(nested_policy.ok());
  EXPECT_NE(nested_policy.status().message().find("cannot nest"),
            std::string::npos);

  PolicyConfig empty = PolicyConfig::Adaptive({});
  auto empty_policy = MakePolicy(empty, context);
  ASSERT_FALSE(empty_policy.ok());
  EXPECT_NE(empty_policy.status().message().find("at least one expert"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// MetaStats plumbing through the pools.

TEST(AdaptiveMetaStatsTest, BufferPoolExposesExpertCounters) {
  SimDiskManager disk;
  auto policy = BuildPolicy("adaptive:lruk2+arc+2q", /*capacity=*/16);
  BufferPool pool(16, &disk, std::move(policy));
  std::vector<PageId> pages = AllocateDb(pool, 64);
  RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
  RandomEngine rng(3);
  for (int i = 0; i < 3000; ++i) {
    PageId p = pages[dist.Sample(rng) - 1];
    ASSERT_TRUE(pool.FetchPage(p).ok());
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  MetaPolicyStats stats = pool.MetaStats();
  EXPECT_TRUE(stats.adaptive);
  ASSERT_EQ(stats.experts.size(), 3u);
  EXPECT_EQ(stats.experts[0].name, "lruk2");
  EXPECT_EQ(stats.experts[1].name, "arc");
  EXPECT_EQ(stats.experts[2].name, "2q");
  EXPECT_GT(stats.total_misses, 0u);
  uint64_t ghost_sum = 0;
  for (const MetaExpertStats& e : stats.experts) {
    EXPECT_GT(e.ghost_misses, 0u);
    ghost_sum += e.ghost_misses;
  }
  // Every live miss was also a miss for at least one ghost... not
  // guaranteed in general, but the ghosts each saw the whole stream, so
  // their summed misses bound the window's worth of live misses.
  EXPECT_GE(ghost_sum, stats.window_misses);
  uint64_t active_refs = 0;
  for (const MetaExpertStats& e : stats.experts) active_refs += e.active_refs;
  // One per fetch + initial admit, less the correlated re-fixes the pool
  // kept from the policy.
  EXPECT_EQ(active_refs + pool.stats().correlated_refs, 3000u + 64u);
}

TEST(AdaptiveMetaStatsTest, PlainPoliciesReportNonAdaptive) {
  SimDiskManager disk;
  BufferPool pool(8, &disk,
                  std::make_unique<LruKPolicy>(LruKOptions{.k = 2}));
  (void)AllocateDb(pool, 16);
  MetaPolicyStats stats = pool.MetaStats();
  EXPECT_FALSE(stats.adaptive);
  EXPECT_TRUE(stats.experts.empty());
  EXPECT_EQ(stats.total_misses, 0u);
}

TEST(AdaptiveMetaStatsTest, ShardedPoolMergesExpertWise) {
  SimDiskManager disk;
  auto parsed = ParsePolicySpec("adaptive:lruk2+arc");
  ASSERT_TRUE(parsed.ok());
  auto factory = MakeShardPolicyFactory(*parsed);
  ASSERT_TRUE(factory.ok());
  ShardedBufferPool pool(64, /*num_shards=*/4, &disk, *factory);
  std::vector<PageId> pages = AllocateDb(pool, 256);
  RecursiveSkewDistribution dist(0.8, 0.2, pages.size());
  RandomEngine rng(9);
  for (int i = 0; i < 4000; ++i) {
    PageId p = pages[dist.Sample(rng) - 1];
    ASSERT_TRUE(pool.FetchPage(p).ok());
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  MetaPolicyStats merged = pool.MetaStats();
  EXPECT_TRUE(merged.adaptive);
  ASSERT_EQ(merged.experts.size(), 2u);
  EXPECT_EQ(merged.experts[0].name, "lruk2");

  MetaPolicyStats manual;
  for (size_t i = 0; i < pool.shard_count(); ++i) {
    manual += pool.shard(i).MetaStats();
  }
  EXPECT_EQ(merged.total_misses, manual.total_misses);
  EXPECT_EQ(merged.switches, manual.switches);
  for (size_t i = 0; i < merged.experts.size(); ++i) {
    EXPECT_EQ(merged.experts[i].ghost_misses,
              manual.experts[i].ghost_misses);
    EXPECT_EQ(merged.experts[i].active_refs, manual.experts[i].active_refs);
  }
  // Per-shard snapshots account for every reference the shard observed.
  uint64_t merged_refs = 0;
  for (const MetaExpertStats& e : merged.experts) {
    merged_refs += e.active_refs;
  }
  EXPECT_EQ(merged_refs + pool.stats().correlated_refs, 4000u + 256u);
}

}  // namespace
}  // namespace lruk
