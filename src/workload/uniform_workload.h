// Uniform independent references over N pages — the skewless control
// workload (every policy should converge to hit ratio ~ B/N).

#ifndef LRUK_WORKLOAD_UNIFORM_WORKLOAD_H_
#define LRUK_WORKLOAD_UNIFORM_WORKLOAD_H_

#include "util/random.h"
#include "workload/workload.h"

namespace lruk {

struct UniformOptions {
  uint64_t num_pages = 1000;
  uint64_t seed = 42;
  double write_fraction = 0.0;
};

class UniformWorkload final : public ReferenceStringGenerator {
 public:
  explicit UniformWorkload(UniformOptions options);

  AccessRecord Next() override;
  void Reset() override;
  uint64_t NumPages() const override { return options_.num_pages; }
  std::string_view Name() const override { return "uniform"; }
  std::optional<std::vector<double>> Probabilities() const override;

 private:
  UniformOptions options_;
  RandomEngine rng_;
};

}  // namespace lruk

#endif  // LRUK_WORKLOAD_UNIFORM_WORKLOAD_H_
