#include "workload/transactional.h"

#include <algorithm>
#include <cmath>

#include "util/macros.h"

namespace lruk {

TransactionalWorkload::TransactionalWorkload(TransactionalOptions options)
    : options_(options),
      dist_(options.alpha, options.beta, options.num_pages),
      rng_(options.seed) {
  LRUK_ASSERT(options_.num_processes >= 1, "need at least one process");
  LRUK_ASSERT(options_.mean_pages_per_transaction >= 1.0,
              "transactions must touch at least one page");
  processes_.resize(options_.num_processes);
}

void TransactionalWorkload::StartTransaction(uint32_t pid) {
  Process& proc = processes_[pid];

  // Type 2: re-execute the previous transaction verbatim.
  if (!proc.last_txn.empty() &&
      rng_.NextBernoulli(options_.retry_probability)) {
    proc.script.assign(proc.last_txn.begin(), proc.last_txn.end());
    return;
  }

  // Geometric transaction length.
  double p = 1.0 / options_.mean_pages_per_transaction;
  double u = rng_.NextDouble();
  uint64_t length = static_cast<uint64_t>(
      std::max(1.0, std::ceil(std::log1p(-u) / std::log1p(-p))));
  length = std::min<uint64_t>(length, 64);

  std::vector<AccessRecord> txn;
  txn.reserve(length * 2);
  for (uint64_t i = 0; i < length; ++i) {
    PageId page;
    if (i == 0 && proc.last_page != kInvalidPageId &&
        rng_.NextBernoulli(options_.batch_continuation)) {
      page = proc.last_page;  // Type 3: continue on the same page.
    } else {
      page = dist_.Sample(rng_) - 1;
    }
    txn.push_back(AccessRecord{page, pid, AccessType::kRead});
    if (rng_.NextBernoulli(options_.intra_transaction_reref)) {
      // Type 1: read now, update later in the same transaction.
      txn.push_back(AccessRecord{page, pid, AccessType::kWrite});
    }
  }
  // Updates happen after the initial reads: stable-partition writes to the
  // second half, preserving read order (classic read-set-then-write-set).
  std::stable_partition(txn.begin(), txn.end(), [](const AccessRecord& r) {
    return r.type == AccessType::kRead;
  });

  proc.last_txn = txn;
  proc.last_page = txn.back().page;
  proc.script.assign(txn.begin(), txn.end());
}

AccessRecord TransactionalWorkload::Next() {
  // Round-robin scheduler: one reference per process per turn.
  uint32_t pid = next_process_;
  next_process_ = (next_process_ + 1) % options_.num_processes;
  Process& proc = processes_[pid];
  if (proc.script.empty()) StartTransaction(pid);
  AccessRecord ref = proc.script.front();
  proc.script.pop_front();
  return ref;
}

void TransactionalWorkload::Reset() {
  rng_ = RandomEngine(options_.seed);
  processes_.assign(options_.num_processes, Process{});
  next_process_ = 0;
}

}  // namespace lruk
