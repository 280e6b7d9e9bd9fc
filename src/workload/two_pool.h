// The two-pool workload of Section 4.1 / Example 1.1: strictly alternating
// references to a small hot pool (B-tree leaf pages) and a large cold pool
// (record pages), each reference uniform within its pool. Every hot page
// has probability 1/(2*N1) and every cold page 1/(2*N2).
//
// Page ids: [0, n1) is pool 1 (hot), [n1, n1+n2) is pool 2 (cold).

#ifndef LRUK_WORKLOAD_TWO_POOL_H_
#define LRUK_WORKLOAD_TWO_POOL_H_

#include "util/random.h"
#include "workload/workload.h"

namespace lruk {

struct TwoPoolOptions {
  uint64_t n1 = 100;     // Hot pool size (index leaf pages).
  uint64_t n2 = 10000;   // Cold pool size (record pages).
  uint64_t seed = 42;
  double write_fraction = 0.0;  // Fraction of references that are writes.
};

class TwoPoolWorkload final : public ReferenceStringGenerator {
 public:
  explicit TwoPoolWorkload(TwoPoolOptions options);

  AccessRecord Next() override;
  void Reset() override;
  uint64_t NumPages() const override { return options_.n1 + options_.n2; }
  std::string_view Name() const override { return "two-pool"; }
  std::optional<std::vector<double>> Probabilities() const override;

  uint32_t ClassOf(PageId page) const override {
    return page < options_.n1 ? 0 : 1;
  }
  uint32_t NumClasses() const override { return 2; }
  std::string_view ClassName(uint32_t cls) const override {
    return cls == 0 ? "pool1(hot)" : "pool2(cold)";
  }

 private:
  TwoPoolOptions options_;
  RandomEngine rng_;
  bool next_is_pool1_ = true;
};

}  // namespace lruk

#endif  // LRUK_WORKLOAD_TWO_POOL_H_
