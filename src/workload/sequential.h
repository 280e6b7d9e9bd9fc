// Sequential-scan workloads for the Example 1.2 experiments ("cache
// swamping by sequential scans").
//
//  * SequentialScanWorkload — a pure cyclic scan over N pages; the
//    degenerate case where LRU keeps exactly the wrong pages.
//  * MixedScanWorkload — the Example 1.2 scenario: interactive processes
//    with high locality (a hot set absorbing most references) sharing the
//    buffer with batch processes running full sequential scans. The scan
//    can be toggled to model before/during/after phases.

#ifndef LRUK_WORKLOAD_SEQUENTIAL_H_
#define LRUK_WORKLOAD_SEQUENTIAL_H_

#include "util/random.h"
#include "workload/workload.h"

namespace lruk {

struct SequentialScanOptions {
  uint64_t num_pages = 1000;
  PageId start = 0;
};

class SequentialScanWorkload final : public ReferenceStringGenerator {
 public:
  explicit SequentialScanWorkload(SequentialScanOptions options);

  AccessRecord Next() override;
  void Reset() override;
  uint64_t NumPages() const override { return options_.num_pages; }
  std::string_view Name() const override { return "sequential-scan"; }

 private:
  SequentialScanOptions options_;
  PageId next_;
};

struct MixedScanOptions {
  // Example 1.2 figures: 5000 hot pages out of 1,000,000 take 95% of the
  // interactive references. Scaled-down defaults keep simulations fast;
  // the bench scales them up.
  uint64_t hot_pages = 500;
  uint64_t total_pages = 100000;
  double hot_probability = 0.95;
  // Fraction of references issued by the scanning batch process while a
  // scan is active (interleaving ratio).
  double scan_fraction = 0.5;
  uint64_t seed = 42;
  bool scan_initially_active = false;
};

class MixedScanWorkload final : public ReferenceStringGenerator {
 public:
  explicit MixedScanWorkload(MixedScanOptions options);

  AccessRecord Next() override;
  void Reset() override;
  uint64_t NumPages() const override { return options_.total_pages; }
  std::string_view Name() const override { return "mixed-scan"; }

  // Page classes: 0 = hot set, 1 = cold.
  uint32_t ClassOf(PageId page) const override {
    return page < options_.hot_pages ? 0 : 1;
  }
  uint32_t NumClasses() const override { return 2; }
  std::string_view ClassName(uint32_t cls) const override {
    return cls == 0 ? "hot" : "cold";
  }

  // Phase control for the before/during/after experiment.
  void SetScanActive(bool active) { scan_active_ = active; }
  bool scan_active() const { return scan_active_; }

 private:
  AccessRecord InteractiveRef();

  MixedScanOptions options_;
  RandomEngine rng_;
  bool scan_active_;
  PageId scan_cursor_ = 0;
};

}  // namespace lruk

#endif  // LRUK_WORKLOAD_SEQUENTIAL_H_
