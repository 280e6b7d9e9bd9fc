// Fundamental identifier and time types shared across the library.

#ifndef LRUK_CORE_TYPES_H_
#define LRUK_CORE_TYPES_H_

#include <cstdint>
#include <limits>

namespace lruk {

// Identifies a disk page. Workload generators number pages densely from 0;
// the buffer pool allocates them monotonically.
using PageId = uint64_t;

// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = std::numeric_limits<PageId>::max();

// Logical time, measured in counts of successive page references (the paper
// measures all intervals this way, Section 2). Starts at 1 so that 0 can
// mean "never referenced" in history blocks.
using Timestamp = uint64_t;

// Identifies a frame (buffer slot) inside a BufferPool.
using FrameId = uint32_t;

inline constexpr FrameId kInvalidFrameId =
    std::numeric_limits<FrameId>::max();

// How a page was referenced. Replacement policies in this library are
// self-reliant (the paper's design goal) and ignore the distinction, but
// the buffer pool uses it for dirty tracking, and workloads carry it so
// traces are faithful.
enum class AccessType : uint8_t {
  kRead = 0,
  kWrite = 1,
};

// One page reference: an element of the reference string r_1, r_2, ...
// that workloads generate and ReferenceStep applies, and the cell a buffer
// pool's hit path publishes to its access ring for
// ReplacementPolicy::RecordAccessBatch. `process` identifies the issuing
// process/transaction stream (Section 2.1.1 distinguishes correlated
// reference-pair types by process) and feeds SetReferencingProcess;
// single-stream workloads and the pools leave it 0.
struct AccessRecord {
  PageId page = kInvalidPageId;
  uint32_t process = 0;
  AccessType type = AccessType::kRead;
};

}  // namespace lruk

#endif  // LRUK_CORE_TYPES_H_
