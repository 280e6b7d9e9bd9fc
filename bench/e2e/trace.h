// Outside-in span tracing for the end-to-end bench.
//
// Every call into a layer's public interface that the bench can see is a
// span: the bench's own btree/heap call sites, TracedPool (the pool
// surface BTree and HeapFile call), TracedPolicy (the replacement policy
// the pool calls) and TimedDisk (the device). Spans nest on a per-thread
// stack; a span's self time is its duration minus the time covered by its
// direct children, so summing self time per layer attributes each
// nanosecond of a transaction to exactly one layer.
//
// Aggregates (calls, self time and a latency histogram per operation)
// cover every span of every transaction that started inside the measured
// window. Full span records are kept only for 1-in-N sampled
// transactions, under a global span budget, and written at exit as Chrome
// trace-event JSON.
//
// A thread participates only after Tracer::Register; untraced runs never
// register, so every Span there costs one thread-local load and a branch.

#ifndef LRUK_BENCH_E2E_TRACE_H_
#define LRUK_BENCH_E2E_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "histogram.h"

namespace lruk::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : uint8_t {
  kClient,
  kBtree,
  kHeap,
  kBufferPool,
  kCore,
  kStorage,
};

enum class Op : uint8_t {
  // client: the bench's own code
  kTxn,
  kScanPass,
  kScanVisit,
  // btree / heap: the bench's call sites
  kBtreeGet,
  kBtreeUpdate,
  kBtreeInsert,
  kHeapGet,
  kHeapUpdate,
  kHeapScan,
  // bufferpool: TracedPool. A fetch opens as a hit and turns into a miss
  // when a device read closes beneath it.
  kFetchHit,
  kFetchMiss,
  kUnpin,
  kNewPage,
  kPoolOther,
  // core: TracedPolicy
  kRecordAccess,
  kRecordAccessBatch,
  kPrepareAdmit,
  kAdmit,
  kEvict,
  kRestore,
  kSetEvictable,
  kRemove,
  // storage: TimedDisk
  kDiskRead,
  kDiskWrite,
};
inline constexpr size_t kOpCount = 24;

const char* OpName(Op op);
Layer OpLayer(Op op);
const char* LayerName(Layer layer);

struct OpStats {
  uint64_t calls = 0;
  uint64_t self_ns = 0;
  Histogram latency;

  void Merge(const OpStats& other) {
    calls += other.calls;
    self_ns += other.self_ns;
    latency.Merge(other.latency);
  }
};

// One thread's span stack, aggregates and sampled span records. Only the
// owning thread touches it until that thread has been joined.
class ThreadTrace {
 public:
  explicit ThreadTrace(uint32_t tid) : tid_(tid) {}
  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

  // Called with an empty stack, before a transaction's root span opens.
  // `recording`: the transaction started inside the measured window, so
  // its spans are aggregated. `sampled`: its spans are also kept in full.
  void BeginTxn(bool recording, bool sampled, uint64_t txn) {
    recording_ = recording;
    sampled_ = recording && sampled;
    txn_ = txn;
    txn_spans_ = 0;
  }
  // Returns the number of span records the transaction kept.
  uint64_t EndTxn() {
    if (sampled_) ++sampled_txns_;
    sampled_ = false;
    return txn_spans_;
  }

  void Begin(Op op) {
    if (!recording_) {
      warm_spans_.store(warm_spans_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
      return;
    }
    uint32_t record = kNoRecord;
    // Per-row scan visitor spans are aggregated but not kept: a scan pass
    // would otherwise spend the whole budget on them.
    if (sampled_ && op != Op::kScanVisit) {
      record = static_cast<uint32_t>(spans_.size());
      spans_.push_back(SpanRecord{
          op, stack_.empty() ? kNoRecord : stack_.back().record, txn_, 0, 0});
      ++txn_spans_;
    }
    stack_.push_back(Frame{op, NowNs(), 0, record});
  }

  void End() {
    if (!recording_) return;
    Frame frame = stack_.back();
    stack_.pop_back();
    int64_t now = NowNs();
    int64_t duration = now - frame.start_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (frame.op == Op::kDiskRead) MarkEnclosingFetchMiss();
    OpStats& stats = ops_[static_cast<size_t>(frame.op)];
    ++stats.calls;
    stats.self_ns += static_cast<uint64_t>(duration - frame.child_ns);
    stats.latency.Add(static_cast<uint64_t>(duration));
    if (frame.record != kNoRecord) {
      SpanRecord& rec = spans_[frame.record];
      rec.op = frame.op;
      rec.start_ns = frame.start_ns;
      rec.end_ns = now;
    }
  }

  // Records passed to RecordAccessBatch (core.drain_records_per_call).
  void CountDrainedRecords(uint64_t n) {
    if (recording_) drained_records_ += n;
  }

  uint64_t warm_spans() const {
    return warm_spans_.load(std::memory_order_relaxed);
  }

 private:
  friend class Tracer;

  static constexpr uint32_t kNoRecord = UINT32_MAX;

  struct Frame {
    Op op;
    int64_t start_ns;
    int64_t child_ns;
    uint32_t record;
  };
  struct SpanRecord {
    Op op;
    uint32_t parent;
    uint64_t txn;
    int64_t start_ns;
    int64_t end_ns;
  };

  void MarkEnclosingFetchMiss() {
    for (size_t i = stack_.size(); i-- > 0;) {
      if (stack_[i].op == Op::kFetchHit) {
        stack_[i].op = Op::kFetchMiss;
        return;
      }
    }
  }

  uint32_t tid_;
  bool recording_ = false;
  bool sampled_ = false;
  uint64_t txn_ = 0;
  uint64_t txn_spans_ = 0;
  uint64_t sampled_txns_ = 0;
  uint64_t drained_records_ = 0;
  std::vector<Frame> stack_;
  std::array<OpStats, kOpCount> ops_;
  std::vector<SpanRecord> spans_;
  // Spans seen before the window opened; the main thread sizes the
  // sampling rate from them while clients are still running.
  std::atomic<uint64_t> warm_spans_{0};
};

// The calling thread's trace, or null when the thread is not traced.
inline thread_local ThreadTrace* tls_trace = nullptr;

// RAII span on the calling thread's trace.
class Span {
 public:
  explicit Span(Op op) : trace_(tls_trace) {
    if (trace_ != nullptr) trace_->Begin(op);
  }
  ~Span() {
    if (trace_ != nullptr) trace_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* trace_;
};

class Tracer {
 public:
  // Upper bound on kept span records; 1-in-N sampling targets it and a
  // hard stop enforces it.
  static constexpr uint64_t kSpanBudget = 250000;

  // Creates the trace of one client thread; owned by the tracer.
  ThreadTrace* Register(uint32_t tid);

  // Sampling state shared by the client threads.
  uint64_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }
  void set_sample_every(uint64_t n) {
    sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }
  bool BudgetLeft() const {
    return spans_kept_.load(std::memory_order_relaxed) < kSpanBudget;
  }
  void AddKept(uint64_t n) {
    spans_kept_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t WarmSpans() const;

  // Aggregates across threads; call only after every client has joined.
  OpStats Merged(Op op) const;
  uint64_t DrainedRecords() const;
  uint64_t SampledTxns() const;
  uint64_t KeptSpans() const;

  // Writes the kept spans as Chrome trace-event JSON. Returns false and
  // fills `error` on I/O failure.
  bool WriteChromeJson(const std::string& path, std::string* error) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
  std::atomic<uint64_t> sample_every_{1};
  std::atomic<uint64_t> spans_kept_{0};
};

}  // namespace lruk::e2e

#endif  // LRUK_BENCH_E2E_TRACE_H_
