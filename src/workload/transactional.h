// Multi-process transactional workload, generating the paper's Section
// 2.1.1 correlated reference-pair types organically rather than by
// decoration:
//
//   type 1 (intra-transaction)  — a transaction reads a page and later
//                                 updates it before committing;
//   type 2 (transaction-retry)  — a transaction aborts and re-executes,
//                                 touching the same pages again;
//   type 3 (intra-process)      — a batch process commits and its next
//                                 transaction continues on the same page;
//   type 4 (inter-process)      — independent processes happen to touch
//                                 the same (hot) page.
//
// `num_processes` concurrent processes run transactions over a skewed page
// population; their references interleave round-robin, so the gap between
// two correlated references of one transaction is about `num_processes`
// ticks — which is exactly why the Correlated Reference Period (and its
// per-process refinement) exists.

#ifndef LRUK_WORKLOAD_TRANSACTIONAL_H_
#define LRUK_WORKLOAD_TRANSACTIONAL_H_

#include <deque>
#include <vector>

#include "util/random.h"
#include "util/zipf.h"
#include "workload/workload.h"

namespace lruk {

struct TransactionalOptions {
  uint32_t num_processes = 8;
  uint64_t num_pages = 10000;
  // Skew of transaction target pages (recursive alpha-beta, 80-20 default).
  double alpha = 0.8;
  double beta = 0.2;
  // Distinct pages per transaction (geometric, mean >= 1).
  double mean_pages_per_transaction = 5.0;
  // Type 1: probability a page is re-referenced (read, then updated)
  // within the same transaction.
  double intra_transaction_reref = 0.4;
  // Type 2: probability a completed transaction aborts and re-executes.
  double retry_probability = 0.05;
  // Type 3: probability the process's next transaction starts on the same
  // page the previous one ended on (batch update pattern).
  double batch_continuation = 0.2;
  uint64_t seed = 42;
};

class TransactionalWorkload final : public ReferenceStringGenerator {
 public:
  explicit TransactionalWorkload(TransactionalOptions options);

  AccessRecord Next() override;
  void Reset() override;
  uint64_t NumPages() const override { return options_.num_pages; }
  std::string_view Name() const override { return "transactional"; }

 private:
  struct Process {
    std::deque<AccessRecord> script;     // Remaining refs of the current txn.
    std::vector<AccessRecord> last_txn;  // For type-2 retries.
    PageId last_page = kInvalidPageId;  // For type-3 continuation.
  };

  // Builds the next transaction's reference script for process `pid`.
  void StartTransaction(uint32_t pid);

  TransactionalOptions options_;
  RecursiveSkewDistribution dist_;
  RandomEngine rng_;
  std::vector<Process> processes_;
  uint32_t next_process_ = 0;
};

}  // namespace lruk

#endif  // LRUK_WORKLOAD_TRANSACTIONAL_H_
