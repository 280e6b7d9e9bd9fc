// Trace capture and replay, so users can feed real page-reference traces
// (the role the bank's OLTP trace plays in Section 4.3) into the simulator.
//
// Text format, one reference per line:
//     <page-id> [R|W] [process-id]
// Blank lines and lines starting with '#' are ignored; the access type
// defaults to R and the process id to 0. The writer always emits all
// three columns.

#ifndef LRUK_WORKLOAD_TRACE_H_
#define LRUK_WORKLOAD_TRACE_H_

#include <string>
#include <vector>

#include "util/status.h"
#include "workload/workload.h"

namespace lruk {

// Replays a fixed reference vector. Unlike the generative workloads the
// stream *does* end; Next() past the end wraps around (and exhausted() can
// be checked to stop at one pass).
class TraceWorkload final : public ReferenceStringGenerator {
 public:
  explicit TraceWorkload(std::vector<AccessRecord> refs);

  AccessRecord Next() override;
  void Reset() override { pos_ = 0; }
  uint64_t NumPages() const override { return num_pages_; }
  std::string_view Name() const override { return "trace"; }

  size_t size() const { return refs_.size(); }
  // True once one full pass has been emitted (wraps afterwards).
  bool exhausted() const { return pos_ >= refs_.size(); }
  const std::vector<AccessRecord>& refs() const { return refs_; }

 private:
  std::vector<AccessRecord> refs_;
  uint64_t num_pages_ = 0;
  size_t pos_ = 0;
};

// Parses the text trace format from a file.
Result<std::vector<AccessRecord>> ReadTraceFile(const std::string& path);

// Parses the text trace format from a string (tests).
Result<std::vector<AccessRecord>> ParseTrace(const std::string& text);

// Writes refs in the text trace format. Overwrites `path`.
Status WriteTraceFile(const std::string& path,
                      const std::vector<AccessRecord>& refs);

}  // namespace lruk

#endif  // LRUK_WORKLOAD_TRACE_H_
