// Property tests for LRU-K, parameterized over K, the Correlated Reference
// Period, the Retained Information Period, and the random seed:
//
//  1. The lazy victim heap picks exactly the victim of a naive Figure 2.1
//     scan over the policy's public view, on arbitrary operation
//     sequences, including pinning, removal, post-eviction re-admission,
//     fallback eviction (every page inside its CRP) and mid-script history
//     purges.
//  2. LRU-K with K = 1 and CRP = 0 is exactly classical LRU.
//  3. The policy is deterministic from its inputs.
//  4. Internal counters agree with a model of the resident set.
//  5. A failed write-back's Restore is exact: a policy whose evictions are
//     rolled back at random points stays in lockstep with a twin that
//     never saw them.

#include <optional>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "core/lru.h"
#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace lruk {
namespace {

constexpr size_t kCapacity = 16;
constexpr PageId kPages = 48;
constexpr int kSteps = 4000;

// Figure 2.1's "for all pages q in the buffer" loop, run naively over the
// policy's public view: the victim is the evictable resident page with the
// smallest (HIST(q,K), HIST(q,1), q) among those outside their Correlated
// Reference Period at the faulting reference's time, else (every page
// inside its CRP) the smallest regardless, counted as a fallback.
struct Figure21Oracle {
  const LruKPolicy& policy;
  uint64_t fallbacks = 0;

  std::optional<PageId> PickVictim() {
    using Key = std::tuple<Timestamp, Timestamp, PageId>;
    const Timestamp t = policy.CurrentTime() + 1;
    const Timestamp crp = policy.options().correlated_reference_period;
    std::optional<Key> eligible;
    std::optional<Key> any;
    policy.ForEachResident([&](PageId q) {
      const HistoryBlock& block = *policy.DebugBlock(q);
      if (!block.evictable) return;
      Key key{block.HistK(), block.Hist1(), q};
      if (!any || key < *any) any = key;
      if (t - block.last > crp && (!eligible || key < *eligible)) {
        eligible = key;
      }
    });
    if (!eligible && any) ++fallbacks;
    std::optional<Key> victim = eligible ? eligible : any;
    if (!victim) return std::nullopt;
    return std::get<2>(*victim);
  }
};

// Drives N policies with an identical randomized reference/pin/remove
// script, asserting identical observable behavior at every step. With an
// `oracle` over policies[0], every eviction must also pick the oracle's
// victim, and the two must agree on the fallback count after each one.
// With `failed_write_backs`, policies[0] alone also nominates victims now
// and then and hands them all back (see the last branch below).
void RunLockstepMany(const std::vector<ReplacementPolicy*>& policies,
                     uint64_t seed, Figure21Oracle* oracle = nullptr,
                     bool failed_write_backs = false) {
  ASSERT_FALSE(policies.empty());
  RandomEngine rng(seed);
  std::unordered_set<PageId> resident;
  std::unordered_set<PageId> pinned;

  // Evicts from every policy; all victims must agree. Returns the common
  // victim (nullopt when everything is pinned / inside its CRP with no
  // fallback possible).
  auto evict_all = [&](int step) -> std::optional<PageId> {
    std::optional<PageId> expected;
    if (oracle != nullptr) expected = oracle->PickVictim();
    std::optional<PageId> first = policies[0]->Evict();
    if (oracle != nullptr) {
      EXPECT_EQ(first, expected)
          << "victim diverged from the Figure 2.1 oracle at step " << step;
      EXPECT_EQ(oracle->policy.fallback_evictions(), oracle->fallbacks)
          << "fallback count diverged from the oracle at step " << step;
    }
    for (size_t i = 1; i < policies.size(); ++i) {
      std::optional<PageId> other = policies[i]->Evict();
      EXPECT_EQ(first, other)
          << "victims diverged at step " << step << " (policy 0 vs " << i
          << ")";
    }
    return first;
  };

  for (int step = 0; step < kSteps; ++step) {
    double action = rng.NextDouble();
    if (action < 0.80) {
      // A page reference.
      PageId p = rng.NextBounded(kPages);
      if (resident.contains(p)) {
        for (ReplacementPolicy* policy : policies) {
          policy->RecordAccess(p, AccessType::kRead);
        }
      } else {
        if (resident.size() == kCapacity) {
          auto victim = evict_all(step);
          if (::testing::Test::HasFailure()) return;
          if (!victim.has_value()) continue;  // Everything pinned; skip.
          resident.erase(*victim);
          pinned.erase(*victim);
        }
        for (ReplacementPolicy* policy : policies) {
          policy->Admit(p, AccessType::kRead);
        }
        resident.insert(p);
      }
    } else if (action < 0.90) {
      // Toggle a pin on a random resident page.
      if (resident.empty()) continue;
      std::vector<PageId> pool(resident.begin(), resident.end());
      PageId p = pool[rng.NextBounded(pool.size())];
      bool make_evictable = pinned.contains(p);
      for (ReplacementPolicy* policy : policies) {
        policy->SetEvictable(p, make_evictable);
      }
      if (make_evictable) {
        pinned.erase(p);
      } else {
        pinned.insert(p);
      }
    } else if (action < 0.95) {
      // Remove a random resident page.
      if (resident.empty()) continue;
      std::vector<PageId> pool(resident.begin(), resident.end());
      PageId p = pool[rng.NextBounded(pool.size())];
      for (ReplacementPolicy* policy : policies) policy->Remove(p);
      resident.erase(p);
      pinned.erase(p);
    } else if (!failed_write_backs || action < 0.975) {
      // Spontaneous eviction.
      auto victim = evict_all(step);
      if (::testing::Test::HasFailure()) return;
      if (victim.has_value()) {
        resident.erase(*victim);
        pinned.erase(*victim);
      }
    } else {
      // A failed write-back on policies[0] alone: one Evict or an
      // EvictBatch of 2-4 nominees (the pools' path, skipping pinned
      // ones), every victim handed back with Restore in reverse order.
      // No other policy sees it, so all must stay in lockstep.
      std::vector<PageId> nominees;
      const size_t n = 1 + rng.NextBounded(4);
      if (n == 1) {
        if (auto victim = policies[0]->Evict()) nominees.push_back(*victim);
      } else {
        policies[0]->EvictBatch(n, &nominees);
      }
      for (size_t i = nominees.size(); i-- > 0;) {
        policies[0]->Restore(nominees[i]);
      }
    }

    for (ReplacementPolicy* policy : policies) {
      ASSERT_EQ(policy->ResidentCount(), resident.size());
      ASSERT_EQ(policy->EvictableCount(), resident.size() - pinned.size());
    }
    for (PageId p = 0; p < kPages; ++p) {
      for (ReplacementPolicy* policy : policies) {
        ASSERT_EQ(policy->IsResident(p), resident.contains(p));
      }
    }
  }
}

void RunLockstep(ReplacementPolicy& a, ReplacementPolicy& b, uint64_t seed) {
  RunLockstepMany({&a, &b}, seed);
}

// The lazy heap in lockstep with the Figure 2.1 oracle on a randomized
// script (references, pin toggles, removals, spontaneous evictions — so
// evicted pages are re-admitted with surviving history, and with a finite
// RIP the purge demon fires mid-script). The RIP axis sweeps infinite
// retention plus finite periods straddling the script's reuse distance;
// the CRP axis includes a period longer than the whole script, which
// forces every eviction down the fallback path (no page is ever eligible).
class LruKOracleEquivalence
    : public ::testing::TestWithParam<
          std::tuple<int, Timestamp, Timestamp, uint64_t>> {};

TEST_P(LruKOracleEquivalence, HeapPicksTheFigure21Victim) {
  auto [k, crp, rip, seed] = GetParam();
  LruKOptions options;
  options.k = k;
  options.correlated_reference_period = crp;
  options.retained_information_period = rip;
  // A short demon period so a finite RIP actually purges mid-script (the
  // default 4096 would never fire inside kSteps references).
  options.purge_interval = 64;
  LruKPolicy policy(options);
  Figure21Oracle oracle{policy};

  RunLockstepMany({&policy}, seed, &oracle);

  if (crp > static_cast<Timestamp>(kSteps)) {
    // Sanity: the fallback-heavy axis actually exercised the fallback.
    EXPECT_GT(policy.fallback_evictions(), 0u);
  }
  // The lazy heap may hold stale duplicates, but it must stay bounded by
  // pages-with-history, not grow with the operation count.
  EXPECT_LE(policy.VictimHeapSize(), policy.HistorySize() + kCapacity);
}

INSTANTIATE_TEST_SUITE_P(
    KCrpRipSeedGrid, LruKOracleEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values<Timestamp>(0, 3, 20, 5000),
                       ::testing::Values<Timestamp>(kInfinitePeriod, 48, 400),
                       ::testing::Values<uint64_t>(1, 7, 1234)));

// Restore's exactness (DESIGN.md "Victim search") on the lockstep script:
// one policy's evictions fail at random points and its twin never sees
// them. The twin must pick every victim the rolled-back policy picks, and
// at the end both must hold the same history for every page. The finite
// RIPs let resident pages idle past the period before their eviction
// fails, the case in which a Restore that checks expiry wipes history; the
// CRP axis includes the all-fallback period. The history-budget test runs
// the same grid under max_nonresident_history = 8, the case in which
// retaining a victim's block at once can drop another page's block, which
// the failed eviction's Restore cannot bring back.
void ExpectRollbackMatchesTwin(int k, Timestamp crp, Timestamp rip,
                               size_t budget) {
  LruKOptions options;
  options.k = k;
  options.correlated_reference_period = crp;
  options.retained_information_period = rip;
  options.purge_interval = 64;
  options.max_nonresident_history = budget;
  LruKPolicy rolled_back(options);
  LruKPolicy twin(options);

  RunLockstepMany({&rolled_back, &twin}, /*seed=*/1234, /*oracle=*/nullptr,
                  /*failed_write_backs=*/true);
  if (::testing::Test::HasFailure()) return;

  EXPECT_EQ(rolled_back.CurrentTime(), twin.CurrentTime());
  EXPECT_EQ(rolled_back.HistorySize(), twin.HistorySize());
  for (PageId p = 0; p < kPages; ++p) {
    const HistoryBlock* a = rolled_back.DebugBlock(p);
    const HistoryBlock* b = twin.DebugBlock(p);
    ASSERT_EQ(a == nullptr, b == nullptr) << "page " << p;
    if (a == nullptr) continue;
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(a->hist[i], b->hist[i]) << "page " << p << " HIST " << i + 1;
    }
    EXPECT_EQ(a->last, b->last) << "page " << p;
    EXPECT_EQ(a->resident, b->resident) << "page " << p;
    EXPECT_EQ(a->evictable, b->evictable) << "page " << p;
  }
}

class LruKRollbackEquivalence
    : public ::testing::TestWithParam<std::tuple<int, Timestamp, Timestamp>> {
};

TEST_P(LruKRollbackEquivalence, RestoredPolicyMatchesANeverEvictedTwin) {
  auto [k, crp, rip] = GetParam();
  ExpectRollbackMatchesTwin(k, crp, rip, /*budget=*/0);
}

TEST_P(LruKRollbackEquivalence,
       RestoredPolicyMatchesANeverEvictedTwinUnderAHistoryBudget) {
  auto [k, crp, rip] = GetParam();
  ExpectRollbackMatchesTwin(k, crp, rip, /*budget=*/8);
}

INSTANTIATE_TEST_SUITE_P(
    KCrpRipGrid, LruKRollbackEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values<Timestamp>(0, 20, 5000),
                       ::testing::Values<Timestamp>(kInfinitePeriod, 48,
                                                    400)));

class LruK1VsLru : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LruK1VsLru, K1WithZeroCrpIsClassicalLru) {
  LruKOptions options;
  options.k = 1;
  options.correlated_reference_period = 0;
  LruKPolicy lru_k(options);
  LruPolicy lru;
  RunLockstep(lru_k, lru, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruK1VsLru,
                         ::testing::Values<uint64_t>(2, 3, 5, 8, 13, 21));

class LruKDeterminism
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(LruKDeterminism, SameScriptSameBehavior) {
  auto [k, seed] = GetParam();
  LruKOptions options;
  options.k = k;
  LruKPolicy a(options);
  LruKPolicy b(options);
  RunLockstep(a, b, seed);  // Lockstep with itself proves determinism.
}

INSTANTIATE_TEST_SUITE_P(
    KSeedGrid, LruKDeterminism,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values<uint64_t>(99, 100)));

// On a pure reference stream (no pins/removes), the eviction victim under
// K=2 always has the maximal backward-2-distance among resident pages —
// checked against brute force over DebugBlock.
TEST(LruKVictimProperty, VictimMaximizesBackwardKDistance) {
  LruKOptions options;
  options.k = 2;
  LruKPolicy policy(options);
  RandomEngine rng(4242);
  std::unordered_set<PageId> resident;

  for (int step = 0; step < 3000; ++step) {
    PageId p = rng.NextBounded(kPages);
    if (resident.contains(p)) {
      policy.RecordAccess(p, AccessType::kRead);
      continue;
    }
    if (resident.size() == kCapacity) {
      // Compute the expected victim by brute force *before* evicting:
      // smallest (HIST(p,K), HIST(p,1)) pair.
      std::optional<std::tuple<Timestamp, Timestamp, PageId>> best;
      for (PageId q : resident) {
        const HistoryBlock* block = policy.DebugBlock(q);
        ASSERT_NE(block, nullptr);
        auto key = std::make_tuple(block->HistK(), block->Hist1(), q);
        if (!best || key < *best) best = key;
      }
      auto victim = policy.Evict();
      ASSERT_TRUE(victim.has_value());
      ASSERT_EQ(*victim, std::get<2>(*best)) << "step " << step;
      resident.erase(*victim);
    }
    policy.Admit(p, AccessType::kRead);
    resident.insert(p);
  }
}

// With CRP = 0 and an infinite RIP, LRU-K's eviction priorities depend
// only on the reference string, never on the buffer size, so it is a
// stack algorithm: hit counts are monotone non-decreasing in capacity
// (the inclusion property). This is also why the B(1)/B(2) inversion in
// the table benches is well-defined.
TEST(LruKStackProperty, HitsMonotoneInCapacity) {
  RandomEngine rng(777);
  std::vector<PageId> trace;
  for (int i = 0; i < 20000; ++i) {
    // Mildly skewed: square of a uniform draw concentrates on low ids.
    uint64_t u = rng.NextBounded(64);
    trace.push_back(u * u / 64);
  }

  for (int k : {1, 2, 3}) {
    uint64_t prev_hits = 0;
    for (size_t capacity : {4u, 8u, 16u, 32u, 64u}) {
      LruKOptions options;
      options.k = k;
      LruKPolicy policy(options);
      uint64_t hits = 0;
      for (PageId p : trace) {
        if (ReferenceStep(policy, capacity, {.page = p}).hit) ++hits;
      }
      ASSERT_GE(hits, prev_hits)
          << "K=" << k << " capacity=" << capacity;
      prev_hits = hits;
    }
  }
}

}  // namespace
}  // namespace lruk
