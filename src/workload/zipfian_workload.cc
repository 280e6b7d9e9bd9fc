#include "workload/zipfian_workload.h"

#include <numeric>

namespace lruk {

ZipfianWorkload::ZipfianWorkload(ZipfianOptions options)
    : options_(options),
      dist_(options.alpha, options.beta, options.num_pages),
      rng_(options.seed) {
  page_of_rank_.resize(options_.num_pages);
  std::iota(page_of_rank_.begin(), page_of_rank_.end(), PageId{0});
  if (options_.shuffle_pages) {
    // A dedicated engine so the mapping is stable across Reset().
    RandomEngine shuffle_rng(options_.seed ^ 0x5eed5eedULL);
    shuffle_rng.Shuffle(page_of_rank_);
  }
}

AccessRecord ZipfianWorkload::Next() {
  uint64_t rank = dist_.Sample(rng_);
  AccessRecord ref;
  ref.page = page_of_rank_[rank - 1];
  ref.type = rng_.NextBernoulli(options_.write_fraction) ? AccessType::kWrite
                                                         : AccessType::kRead;
  return ref;
}

void ZipfianWorkload::Reset() { rng_ = RandomEngine(options_.seed); }

std::optional<std::vector<double>> ZipfianWorkload::Probabilities() const {
  std::vector<double> probs(options_.num_pages);
  for (uint64_t rank = 1; rank <= options_.num_pages; ++rank) {
    probs[page_of_rank_[rank - 1]] = dist_.Pmf(rank);
  }
  return probs;
}

}  // namespace lruk
