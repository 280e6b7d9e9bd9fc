// The Zipfian random-access workload of Section 4.2: independent references
// over N pages where P(page number <= i) = (i/N)^(log alpha / log beta) —
// a fraction alpha of references hits a fraction beta of the pages,
// recursively. Page id = rank - 1 by default (page 0 is hottest); an
// optional seeded shuffle decouples hotness from page-id order so policies
// cannot accidentally benefit from id locality.

#ifndef LRUK_WORKLOAD_ZIPFIAN_WORKLOAD_H_
#define LRUK_WORKLOAD_ZIPFIAN_WORKLOAD_H_

#include <vector>

#include "util/random.h"
#include "util/zipf.h"
#include "workload/workload.h"

namespace lruk {

struct ZipfianOptions {
  uint64_t num_pages = 1000;
  double alpha = 0.8;  // Fraction of references...
  double beta = 0.2;   // ...hitting this fraction of pages (80-20 skew).
  uint64_t seed = 42;
  bool shuffle_pages = false;
  double write_fraction = 0.0;
};

class ZipfianWorkload final : public ReferenceStringGenerator {
 public:
  explicit ZipfianWorkload(ZipfianOptions options);

  AccessRecord Next() override;
  void Reset() override;
  uint64_t NumPages() const override { return options_.num_pages; }
  std::string_view Name() const override { return "zipfian"; }
  std::optional<std::vector<double>> Probabilities() const override;

 private:
  ZipfianOptions options_;
  RecursiveSkewDistribution dist_;
  RandomEngine rng_;
  // rank-1 -> page id (identity unless shuffle_pages).
  std::vector<PageId> page_of_rank_;
};

}  // namespace lruk

#endif  // LRUK_WORKLOAD_ZIPFIAN_WORKLOAD_H_
