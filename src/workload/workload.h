// Reference-string generation (Section 2 of the paper: the system's paging
// behaviour is described by its reference string r_1, r_2, ..., r_t).
//
// A ReferenceStringGenerator produces an endless deterministic stream of
// page references. Reset() rewinds the stream to its beginning so the
// *identical* string can be replayed against every policy under comparison
// (and materialized in advance for the Belady oracle).

#ifndef LRUK_WORKLOAD_WORKLOAD_H_
#define LRUK_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/types.h"

namespace lruk {

class ReferenceStringGenerator {
 public:
  virtual ~ReferenceStringGenerator() = default;

  // Produces the next reference (core/types.h's AccessRecord). The stream
  // never ends.
  virtual AccessRecord Next() = 0;

  // Rewinds to the beginning of the exact same stream.
  virtual void Reset() = 0;

  // Page ids are dense in [0, NumPages()).
  virtual uint64_t NumPages() const = 0;

  virtual std::string_view Name() const = 0;

  // The true stationary per-page reference probabilities beta_p, when the
  // workload is an Independent Reference Model (feeds the A0 oracle).
  // nullopt for non-stationary workloads (scans, moving hot spots, ...).
  virtual std::optional<std::vector<double>> Probabilities() const {
    return std::nullopt;
  }

  // Workload-defined page class (e.g. index pool vs record pool), used for
  // buffer-composition statistics. Classes are dense in [0, NumClasses()).
  virtual uint32_t ClassOf(PageId /*page*/) const { return 0; }
  virtual uint32_t NumClasses() const { return 1; }
  virtual std::string_view ClassName(uint32_t /*cls*/) const { return "all"; }
};

// Draws `count` references and returns just the page ids, leaving the
// generator positioned after them. Callers normally Reset() afterwards —
// this is how the Belady oracle gets its future.
std::vector<PageId> MaterializeTrace(ReferenceStringGenerator& generator,
                                     size_t count);

// Draws `count` full references (page + access type).
std::vector<AccessRecord> MaterializeRefs(ReferenceStringGenerator& generator,
                                     size_t count);

}  // namespace lruk

#endif  // LRUK_WORKLOAD_WORKLOAD_H_
