// Deterministic fault injection for the storage layer.
//
// FaultInjectingDiskManager wraps any DiskManager and executes a seeded,
// programmable fault schedule against the read/write stream: transient and
// permanent failures (the Nth matching op, a specific page id, or a
// Bernoulli draw from a SplitMix64 stream), torn/short writes that leave a
// partially updated page image behind, and latency spikes charged into
// IoStats::simulated_micros. Allocation and deallocation are forwarded
// untouched — the paper's Section 4 simulator models service *time* only,
// and this wrapper is how the repo generates the failure scenarios the
// simulator (and the original buffer managers) never saw.
//
// Determinism: given the same (seed, schedule) and the same sequence of
// ReadPage/WritePage calls, the injected faults are byte-for-byte
// identical — every probabilistic rule consumes exactly one SplitMix64
// draw per armed evaluation, in rule order, under the manager's latch. The
// fault trace (Trace()) records each fired rule with the global op index,
// so a replay can be asserted equal event-by-event.
//
// Stats: stats() returns the inner manager's counters plus this wrapper's
// injected ones. Injected failures never reach the inner manager (its
// reads/writes stay untouched); a torn write is the exception — it
// physically performs a read-modify-write of the victim page on the inner
// manager (counted there) and then reports failure to the caller (counted
// here as a write failure). IoStats::retries counts re-issues observed at
// this layer: a read/write of the same page immediately after a failed
// attempt of the same kind.
//
// Thread safety: every operation is serialized by an internal latch (the
// schedule state, RNG stream and trace are shared), so the wrapper is safe
// under a ShardedBufferPool wherever the inner manager is. It returns 1
// from MaxConcurrentIo, so RunBatch runs a batch one operation at a time
// in batch order and a batch's faults replay as exactly as single
// operations do.

#ifndef LRUK_STORAGE_FAULT_INJECTING_DISK_MANAGER_H_
#define LRUK_STORAGE_FAULT_INJECTING_DISK_MANAGER_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "storage/disk_manager.h"

namespace lruk {

// Which half of the page I/O stream a rule applies to.
enum class FaultOp : uint8_t { kRead = 0, kWrite = 1 };

// What a fired rule does to the matching operation.
enum class FaultEffect : uint8_t {
  // Fail with `error_code`; the inner manager is never called.
  kError = 0,
  // Write only the first `torn_bytes` of the new image over the old page
  // contents on the inner manager, then fail the call — the torn page is
  // what a crashed sector-granular write leaves on disk.
  kTornWrite = 1,
  // Let the op through but charge `latency_micros` of simulated service
  // time (a latency spike, not a failure). Non-terminal: later rules still
  // evaluate against the same op.
  kLatency = 2,
};

// One entry of a fault schedule. A rule *matches* an op of its kind whose
// page passes the optional filter; each match increments the rule's private
// match counter. A matching rule *fires* when its nth/probability trigger
// holds and it has charges left (`max_fires`, 0 = unlimited). Rules are
// evaluated in schedule order; the first kError/kTornWrite fire terminates
// the op, kLatency fires accumulate.
struct FaultRule {
  FaultOp op = FaultOp::kRead;
  FaultEffect effect = FaultEffect::kError;
  // Trigger: if `page` is set, only ops on that page match. If `nth` > 0,
  // the rule fires on exactly its nth match (1-based). If `probability` >
  // 0, a matching op fires with that probability (one seeded draw per
  // evaluation). nth == 0 && probability == 0 fires on every match.
  std::optional<PageId> page;
  uint64_t nth = 0;
  double probability = 0.0;
  // 0 = unlimited (a "permanent" fault until Heal()); 1 = transient.
  uint64_t max_fires = 0;
  // Effect parameters.
  StatusCode error_code = StatusCode::kIoError;
  size_t torn_bytes = 512;
  double latency_micros = 0.0;

  // -- Convenience constructors for the common schedule entries. --

  // Transient: fail exactly the nth read/write (1-based), once.
  static FaultRule FailNth(FaultOp op, uint64_t nth);
  // Permanent: every op on `page` fails until Heal().
  static FaultRule FailPage(FaultOp op, PageId page);
  // Each matching op fails independently with probability `p`.
  static FaultRule FailWithProbability(FaultOp op, double p);
  // The nth write is torn after `bytes_written` bytes, once.
  static FaultRule TornWriteNth(uint64_t nth, size_t bytes_written);
  // Each write is torn with probability `p` after `bytes_written` bytes.
  static FaultRule TornWriteWithProbability(double p, size_t bytes_written);
  // The nth op is delayed by `micros` of simulated service time, once.
  static FaultRule LatencySpikeNth(FaultOp op, uint64_t nth, double micros);
  // Each op is delayed by `micros` with probability `p`.
  static FaultRule LatencyWithProbability(FaultOp op, double p,
                                          double micros);
};

// One fired rule, recorded in the trace. op_index is the global 1-based
// count of ReadPage+WritePage calls at fire time, so traces from two runs
// line up positionally.
struct FaultEvent {
  uint64_t op_index = 0;
  FaultOp op = FaultOp::kRead;
  FaultEffect effect = FaultEffect::kError;
  PageId page = kInvalidPageId;
  size_t rule_index = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

// Renders an event as "op#12 read page 7 rule 0 error" for test failures.
std::string FaultEventToString(const FaultEvent& event);

class FaultInjectingDiskManager final : public DiskManager {
 public:
  // `inner` must outlive the wrapper. The schedule may be empty (the
  // wrapper is then a transparent pass-through) and extended later with
  // AddRule.
  FaultInjectingDiskManager(DiskManager* inner, uint64_t seed = 0,
                            std::vector<FaultRule> schedule = {});

  // Appends a rule to the schedule (evaluated after the existing ones).
  // Also re-arms a healed manager.
  void AddRule(FaultRule rule);

  // Disarms the whole schedule: every subsequent op passes through
  // untouched. The trace and stats are retained for inspection.
  void Heal();
  bool healed() const;

  // Snapshot of the fired-fault trace, in firing order.
  std::vector<FaultEvent> Trace() const;
  // Number of events without copying the trace.
  size_t TraceSize() const;

  Status ReadPage(PageId p, char* out) override;
  Status WritePage(PageId p, const char* data) override;
  // 1: a batch runs in batch order (see the determinism note).
  size_t MaxConcurrentIo() const override { return 1; }
  Result<PageId> AllocatePage() override;
  Status DeallocatePage(PageId p) override;
  uint64_t NumAllocatedPages() const override;

  // Inner counters plus the injected failures / latency / retries.
  IoStats stats() const override;
  void ResetStats() override;

 private:
  struct RuleState {
    uint64_t matches = 0;
    uint64_t fires = 0;
  };

  // Evaluates the schedule for one op. Returns the terminal rule index
  // (kError/kTornWrite) or nullopt for pass-through; latency fires are
  // applied directly. Caller holds the latch.
  std::optional<size_t> EvaluateLocked(FaultOp op, PageId p);
  void RecordEventLocked(FaultOp op, PageId p, size_t rule_index);
  // Tracks the re-issue (retry) heuristic; call once per read/write with
  // the op's final outcome. Caller holds the latch.
  void NoteOutcomeLocked(FaultOp op, PageId p, bool failed);
  // Uniform [0, 1) draw from the seeded SplitMix64 stream.
  double NextDraw();

  mutable std::mutex latch_;
  DiskManager* inner_;
  uint64_t rng_state_;
  std::vector<FaultRule> schedule_;
  std::vector<RuleState> rule_state_;
  bool healed_ = false;
  uint64_t op_index_ = 0;  // Reads + writes seen, 1-based after increment.
  std::vector<FaultEvent> trace_;
  // Last read/write outcome, for the retry counter.
  struct LastOp {
    FaultOp op;
    PageId page;
    bool failed;
  };
  std::optional<LastOp> last_op_;
  // Injected-only deltas added on top of inner_->stats().
  IoStats injected_;
  // Scratch page image for torn writes (guarded by latch_).
  std::unique_ptr<char[]> scratch_;
};

}  // namespace lruk

#endif  // LRUK_STORAGE_FAULT_INJECTING_DISK_MANAGER_H_
