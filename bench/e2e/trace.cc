#include "trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace lruk::e2e {

const char* OpName(Op op) {
  switch (op) {
    case Op::kTxn:
      return "client.txn";
    case Op::kScanPass:
      return "client.scan_pass";
    case Op::kScanVisit:
      return "client.scan_visit";
    case Op::kBtreeGet:
      return "btree.get";
    case Op::kBtreeUpdate:
      return "btree.update";
    case Op::kBtreeInsert:
      return "btree.insert";
    case Op::kHeapGet:
      return "heap.get";
    case Op::kHeapUpdate:
      return "heap.update";
    case Op::kHeapScan:
      return "heap.scan";
    case Op::kFetchHit:
      return "bufferpool.fetch_hit";
    case Op::kFetchMiss:
      return "bufferpool.fetch_miss";
    case Op::kUnpin:
      return "bufferpool.unpin";
    case Op::kNewPage:
      return "bufferpool.new_page";
    case Op::kPoolOther:
      return "bufferpool.other";
    case Op::kRecordAccess:
      return "core.record_access";
    case Op::kRecordAccessBatch:
      return "core.record_access_batch";
    case Op::kPrepareAdmit:
      return "core.prepare_admit";
    case Op::kAdmit:
      return "core.admit";
    case Op::kEvict:
      return "core.evict";
    case Op::kRestore:
      return "core.restore";
    case Op::kSetEvictable:
      return "core.set_evictable";
    case Op::kRemove:
      return "core.remove";
    case Op::kDiskRead:
      return "storage.read";
    case Op::kDiskWrite:
      return "storage.write";
  }
  return "?";
}

Layer OpLayer(Op op) {
  switch (op) {
    case Op::kTxn:
    case Op::kScanPass:
    case Op::kScanVisit:
      return Layer::kClient;
    case Op::kBtreeGet:
    case Op::kBtreeUpdate:
    case Op::kBtreeInsert:
      return Layer::kBtree;
    case Op::kHeapGet:
    case Op::kHeapUpdate:
    case Op::kHeapScan:
      return Layer::kHeap;
    case Op::kFetchHit:
    case Op::kFetchMiss:
    case Op::kUnpin:
    case Op::kNewPage:
    case Op::kPoolOther:
      return Layer::kBufferPool;
    case Op::kRecordAccess:
    case Op::kRecordAccessBatch:
    case Op::kPrepareAdmit:
    case Op::kAdmit:
    case Op::kEvict:
    case Op::kRestore:
    case Op::kSetEvictable:
    case Op::kRemove:
      return Layer::kCore;
    case Op::kDiskRead:
    case Op::kDiskWrite:
      return Layer::kStorage;
  }
  return Layer::kClient;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient:
      return "client";
    case Layer::kBtree:
      return "btree";
    case Layer::kHeap:
      return "heap";
    case Layer::kBufferPool:
      return "bufferpool";
    case Layer::kCore:
      return "core";
    case Layer::kStorage:
      return "storage";
  }
  return "?";
}

ThreadTrace* Tracer::Register(uint32_t tid) {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<ThreadTrace>(tid));
  return threads_.back().get();
}

uint64_t Tracer::WarmSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& t : threads_) total += t->warm_spans();
  return total;
}

OpStats Tracer::Merged(Op op) const {
  std::lock_guard<std::mutex> lock(mu_);
  OpStats merged;
  for (const auto& t : threads_) merged.Merge(t->ops_[static_cast<size_t>(op)]);
  return merged;
}

uint64_t Tracer::DrainedRecords() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& t : threads_) total += t->drained_records_;
  return total;
}

uint64_t Tracer::SampledTxns() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& t : threads_) total += t->sampled_txns_;
  return total;
}

uint64_t Tracer::KeptSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& t : threads_) total += t->spans_.size();
  return total;
}

bool Tracer::WriteChromeJson(const std::string& path,
                             std::string* error) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = path + ": " + std::strerror(errno);
    return false;
  }
  int64_t origin = INT64_MAX;
  for (const auto& t : threads_) {
    for (const auto& s : t->spans_) origin = std::min(origin, s.start_ns);
  }
  // Span ids are unique across threads: the thread id in the high bits.
  auto global_id = [](uint32_t tid, uint32_t index) {
    return (static_cast<uint64_t>(tid) << 32) | index;
  };
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->spans_.size(); ++i) {
      const auto& s = t->spans_[i];
      // A span still open when the run stopped has no end; skip it.
      if (s.end_ns == 0) continue;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"txn\": %llu, \"span\": %llu",
                   first ? "" : ",\n", OpName(s.op),
                   LayerName(OpLayer(s.op)), (s.start_ns - origin) / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, t->tid_,
                   static_cast<unsigned long long>(s.txn),
                   static_cast<unsigned long long>(
                       global_id(t->tid_, static_cast<uint32_t>(i))));
      if (s.parent != ThreadTrace::kNoRecord) {
        std::fprintf(f, ", \"parent\": %llu",
                     static_cast<unsigned long long>(
                         global_id(t->tid_, s.parent)));
      }
      std::fprintf(f, "}}");
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    *error = path + ": write failed";
    return false;
  }
  return true;
}

}  // namespace lruk::e2e
