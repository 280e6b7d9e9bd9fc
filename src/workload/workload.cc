#include "workload/workload.h"

namespace lruk {

std::vector<PageId> MaterializeTrace(ReferenceStringGenerator& generator,
                                     size_t count) {
  std::vector<PageId> trace;
  trace.reserve(count);
  for (size_t i = 0; i < count; ++i) trace.push_back(generator.Next().page);
  return trace;
}

std::vector<AccessRecord> MaterializeRefs(ReferenceStringGenerator& generator,
                                     size_t count) {
  std::vector<AccessRecord> refs;
  refs.reserve(count);
  for (size_t i = 0; i < count; ++i) refs.push_back(generator.Next());
  return refs;
}

}  // namespace lruk
