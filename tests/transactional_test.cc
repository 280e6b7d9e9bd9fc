// Tests for the multi-process transactional workload and LRU-K's
// per-process Time-Out Correlation.

#include <map>
#include <set>
#include <vector>

#include "core/lru_k.h"
#include "gtest/gtest.h"
#include "workload/transactional.h"

namespace lruk {
namespace {

TEST(TransactionalTest, ProcessesRoundRobin) {
  TransactionalOptions options;
  options.num_processes = 4;
  TransactionalWorkload gen(options);
  for (int i = 0; i < 400; ++i) {
    AccessRecord ref = gen.Next();
    EXPECT_EQ(ref.process, static_cast<uint32_t>(i % 4));
  }
}

TEST(TransactionalTest, PagesWithinRange) {
  TransactionalOptions options;
  options.num_pages = 500;
  TransactionalWorkload gen(options);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(gen.Next().page, 500u);
  }
}

TEST(TransactionalTest, IntraTransactionRereadsAreReadThenWrite) {
  // With reref probability 1 every page appears exactly twice per
  // transaction: once as a read, later as a write, same process.
  TransactionalOptions options;
  options.num_processes = 1;
  options.intra_transaction_reref = 1.0;
  options.retry_probability = 0.0;
  options.batch_continuation = 0.0;
  TransactionalWorkload gen(options);
  std::map<PageId, int> reads;
  std::map<PageId, int> writes;
  for (int i = 0; i < 2000; ++i) {
    AccessRecord ref = gen.Next();
    if (ref.type == AccessType::kRead) {
      ++reads[ref.page];
    } else {
      ++writes[ref.page];
      // The write must follow at least one read of the page.
      EXPECT_GE(reads[ref.page], writes[ref.page]) << "page " << ref.page;
    }
  }
  // Aggregate balance (the final transaction may be cut mid-script).
  int total_reads = 0;
  int total_writes = 0;
  for (auto& [p, c] : reads) total_reads += c;
  for (auto& [p, c] : writes) total_writes += c;
  EXPECT_NEAR(total_reads, total_writes, 64);
}

TEST(TransactionalTest, RetryReexecutesSamePages) {
  // With retry probability 1 the same transaction repeats forever.
  TransactionalOptions options;
  options.num_processes = 1;
  options.retry_probability = 1.0;
  options.intra_transaction_reref = 0.0;
  TransactionalWorkload gen(options);
  // The stream must be the first transaction's script repeated forever;
  // find its period by direct check.
  std::vector<PageId> window;
  for (int i = 0; i < 256; ++i) window.push_back(gen.Next().page);
  bool periodic = false;
  for (size_t l = 1; l <= 64 && !periodic; ++l) {
    bool ok = true;
    for (size_t i = l; i < window.size(); ++i) {
      if (window[i] != window[i - l]) {
        ok = false;
        break;
      }
    }
    periodic = ok;
  }
  EXPECT_TRUE(periodic) << "retries must replay the identical script";
}

TEST(TransactionalTest, BatchContinuationChainsTransactions) {
  TransactionalOptions options;
  options.num_processes = 1;
  options.batch_continuation = 1.0;
  options.retry_probability = 0.0;
  options.intra_transaction_reref = 0.0;
  options.mean_pages_per_transaction = 1.0;  // One page per transaction.
  TransactionalWorkload gen(options);
  // Every transaction has one page and starts where the last ended: the
  // whole stream is one page forever.
  PageId first = gen.Next().page;
  for (int i = 0; i < 50; ++i) EXPECT_EQ(gen.Next().page, first);
}

TEST(TransactionalTest, ResetReplaysStream) {
  TransactionalWorkload gen(TransactionalOptions{});
  std::vector<AccessRecord> first;
  for (int i = 0; i < 3000; ++i) first.push_back(gen.Next());
  gen.Reset();
  for (int i = 0; i < 3000; ++i) {
    AccessRecord ref = gen.Next();
    ASSERT_EQ(ref.page, first[i].page) << i;
    ASSERT_EQ(ref.process, first[i].process) << i;
    ASSERT_EQ(static_cast<int>(ref.type), static_cast<int>(first[i].type));
  }
}

TEST(TransactionalTest, SkewConcentratesOnHotPages) {
  TransactionalOptions options;
  options.num_pages = 1000;
  options.batch_continuation = 0.0;
  TransactionalWorkload gen(options);
  int hot = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    if (gen.Next().page < 200) ++hot;  // Hottest 20%.
  }
  EXPECT_GT(hot / static_cast<double>(kDraws), 0.7);  // ~0.8 minus noise.
}

// --- Per-process Time-Out Correlation at the policy level ---

TEST(PerProcessCrpTest, SameProcessWithinCrpIsCorrelated) {
  LruKOptions options;
  options.k = 2;
  options.correlated_reference_period = 10;
  options.per_process_correlation = true;
  LruKPolicy policy(options);
  policy.SetReferencingProcess(3);
  policy.Admit(1, AccessType::kRead);         // t=1 by process 3.
  policy.SetReferencingProcess(3);
  policy.RecordAccess(1, AccessType::kRead);  // t=2, same process: correlated.
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->hist[1], 0u);
  EXPECT_EQ(block->last, 2u);
}

TEST(PerProcessCrpTest, DifferentProcessWithinCrpIsIndependent) {
  LruKOptions options;
  options.k = 2;
  options.correlated_reference_period = 10;
  options.per_process_correlation = true;
  LruKPolicy policy(options);
  policy.SetReferencingProcess(3);
  policy.Admit(1, AccessType::kRead);  // t=1 by process 3.
  policy.SetReferencingProcess(4);
  policy.RecordAccess(1, AccessType::kRead);  // t=2 by process 4: type 4!
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->hist[0], 2u);
  EXPECT_EQ(block->hist[1], 1u);  // Counted as a second reference.
  EXPECT_EQ(policy.BackwardKDistance(1), std::optional<Timestamp>(1));
}

TEST(PerProcessCrpTest, GlobalModeIgnoresProcesses) {
  LruKOptions options;
  options.k = 2;
  options.correlated_reference_period = 10;
  options.per_process_correlation = false;  // The paper's simplification.
  LruKPolicy policy(options);
  policy.SetReferencingProcess(3);
  policy.Admit(1, AccessType::kRead);
  policy.SetReferencingProcess(4);
  policy.RecordAccess(1, AccessType::kRead);  // Different process, but...
  const HistoryBlock* block = policy.DebugBlock(1);
  EXPECT_EQ(block->hist[1], 0u);  // ...still treated as correlated.
}

TEST(PerProcessCrpTest, ProcessSwitchRestartsCorrelationChain) {
  // A-B-A interleave within the CRP: both the B touch and the second A
  // touch count as new uncorrelated references (see the header's
  // approximation note).
  LruKOptions options;
  options.k = 3;
  options.correlated_reference_period = 10;
  options.per_process_correlation = true;
  LruKPolicy policy(options);
  policy.SetReferencingProcess(0);
  policy.Admit(1, AccessType::kRead);  // t=1, A.
  policy.SetReferencingProcess(1);
  policy.RecordAccess(1, AccessType::kRead);  // t=2, B: uncorrelated.
  policy.SetReferencingProcess(0);
  policy.RecordAccess(1, AccessType::kRead);  // t=3, A again: uncorrelated.
  const HistoryBlock* block = policy.DebugBlock(1);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->hist[0], 3u);
  EXPECT_EQ(block->hist[1], 2u);
  EXPECT_EQ(block->hist[2], 1u);
}

}  // namespace
}  // namespace lruk
