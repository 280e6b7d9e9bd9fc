#include "workload/uniform_workload.h"

#include "util/macros.h"

namespace lruk {

UniformWorkload::UniformWorkload(UniformOptions options)
    : options_(options), rng_(options.seed) {
  LRUK_ASSERT(options_.num_pages >= 1, "need at least one page");
}

AccessRecord UniformWorkload::Next() {
  AccessRecord ref;
  ref.page = rng_.NextBounded(options_.num_pages);
  ref.type = rng_.NextBernoulli(options_.write_fraction) ? AccessType::kWrite
                                                         : AccessType::kRead;
  return ref;
}

void UniformWorkload::Reset() { rng_ = RandomEngine(options_.seed); }

std::optional<std::vector<double>> UniformWorkload::Probabilities() const {
  return std::vector<double>(options_.num_pages,
                             1.0 / static_cast<double>(options_.num_pages));
}

}  // namespace lruk
