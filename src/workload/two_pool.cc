#include "workload/two_pool.h"

#include "util/macros.h"

namespace lruk {

TwoPoolWorkload::TwoPoolWorkload(TwoPoolOptions options)
    : options_(options), rng_(options.seed) {
  LRUK_ASSERT(options_.n1 >= 1 && options_.n2 >= 1,
              "both pools must be nonempty");
}

AccessRecord TwoPoolWorkload::Next() {
  AccessRecord ref;
  if (next_is_pool1_) {
    ref.page = rng_.NextBounded(options_.n1);
  } else {
    ref.page = options_.n1 + rng_.NextBounded(options_.n2);
  }
  next_is_pool1_ = !next_is_pool1_;
  ref.type = rng_.NextBernoulli(options_.write_fraction) ? AccessType::kWrite
                                                         : AccessType::kRead;
  return ref;
}

void TwoPoolWorkload::Reset() {
  rng_ = RandomEngine(options_.seed);
  next_is_pool1_ = true;
}

std::optional<std::vector<double>> TwoPoolWorkload::Probabilities() const {
  std::vector<double> probs(NumPages());
  double p1 = 1.0 / (2.0 * static_cast<double>(options_.n1));
  double p2 = 1.0 / (2.0 * static_cast<double>(options_.n2));
  for (uint64_t p = 0; p < options_.n1; ++p) probs[p] = p1;
  for (uint64_t p = options_.n1; p < NumPages(); ++p) probs[p] = p2;
  return probs;
}

}  // namespace lruk
