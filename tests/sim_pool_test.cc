// The paper's simulator predicts the live pool. RunSimulation (Section
// 4's harness) and a single-threaded BufferPool, driven over the same
// reference string under the same policy at the same frame count, must
// miss the same references and evict the same pages in the same order.
//
// The strings have no immediate repeats. The pool serves a fix of the
// page it fixed last as a correlated re-fix that never reaches the
// policy, a rule the simulator does not apply; PoolModel checks that rule
// (differential_harness.h), and EXPERIMENTS.md "One reference step"
// measures the gap it opens when repeats are left in.

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "core/policy_factory.h"
#include "differential_harness.h"
#include "gtest/gtest.h"
#include "sim/simulator.h"
#include "storage/sim_disk_manager.h"
#include "workload/trace.h"
#include "workload/two_pool.h"
#include "workload/zipfian_workload.h"

namespace lruk {
namespace {

using difftest::RecordingPolicy;

constexpr size_t kRefs = 60000;

std::unique_ptr<ReferenceStringGenerator> MakeWorkload(
    const std::string& name) {
  if (name == "TwoPool") {
    return std::make_unique<TwoPoolWorkload>(
        TwoPoolOptions{.n1 = 100, .n2 = 2000, .write_fraction = 0.2});
  }
  return std::make_unique<ZipfianWorkload>(
      ZipfianOptions{.num_pages = 1000});
}

// The first kRefs references of `gen` that name a different page than the
// reference before them.
std::vector<AccessRecord> WithoutRepeats(ReferenceStringGenerator& gen) {
  std::vector<AccessRecord> refs;
  refs.reserve(kRefs);
  while (refs.size() < kRefs) {
    AccessRecord ref = gen.Next();
    if (refs.empty() || refs.back().page != ref.page) refs.push_back(ref);
  }
  return refs;
}

std::unique_ptr<RecordingPolicy> Recorded(const std::string& spec,
                                          size_t frames) {
  auto config = ParsePolicySpec(spec);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  PolicyContext context;
  context.capacity = frames;
  auto policy = MakePolicy(*config, context);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  return std::make_unique<RecordingPolicy>(std::move(*policy));
}

// (workload, frames, policy spec)
using Cell = std::tuple<std::string, size_t, std::string>;

class SimulatorPredictsPoolTest : public ::testing::TestWithParam<Cell> {};

TEST_P(SimulatorPredictsPoolTest, SameMissesEvictionsAndVictims) {
  const auto& [workload, frames, spec] = GetParam();
  std::unique_ptr<ReferenceStringGenerator> gen = MakeWorkload(workload);
  const std::vector<AccessRecord> refs = WithoutRepeats(*gen);

  std::unique_ptr<RecordingPolicy> simulated = Recorded(spec, frames);
  TraceWorkload trace(refs);
  const SimResult sim = RunSimulation(*simulated, trace,
                                      {.capacity = frames,
                                       .warmup_refs = 0,
                                       .measure_refs = refs.size(),
                                       .track_classes = false});

  // The pool fixes and unpins each reference, on a disk that holds every
  // page of the workload.
  SimDiskManager disk;
  for (uint64_t i = 0; i < gen->NumPages(); ++i) {
    ASSERT_TRUE(disk.AllocatePage().ok());
  }
  std::unique_ptr<RecordingPolicy> recorder = Recorded(spec, frames);
  const RecordingPolicy& pooled = *recorder;
  BufferPool pool(frames, &disk, std::move(recorder));
  for (const AccessRecord& ref : refs) {
    ASSERT_TRUE(pool.FetchPage(ref.page, ref.type).ok());
    ASSERT_TRUE(pool.UnpinPage(ref.page, ref.type == AccessType::kWrite).ok());
  }
  const BufferPoolStats stats = pool.stats();

  EXPECT_EQ(stats.misses, sim.total_misses);
  EXPECT_EQ(stats.hits, refs.size() - sim.total_misses);
  EXPECT_EQ(stats.evictions, sim.evictions);
  EXPECT_EQ(stats.correlated_refs, 0u);
  EXPECT_EQ(pooled.evictions(), simulated->evictions());
}

INSTANTIATE_TEST_SUITE_P(
    Cells, SimulatorPredictsPoolTest,
    ::testing::Combine(::testing::Values("TwoPool", "Zipfian"),
                       ::testing::Values(size_t{60}, size_t{150}),
                       ::testing::Values("LRU", "LRU-2", "LRU-3", "LFU",
                                         "FIFO", "CLOCK", "GCLOCK", "MRU",
                                         "2Q", "ARC", "LRD")),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string spec = std::get<2>(info.param);
      std::erase(spec, '-');
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "_" + spec;
    });

}  // namespace
}  // namespace lruk
