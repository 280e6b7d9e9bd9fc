#include "sim/convergence.h"

#include "sim/simulator.h"

namespace lruk {

Result<ConvergenceResult> MeasureConvergence(
    const PolicyConfig& config, ReferenceStringGenerator& gen,
    const ConvergenceOptions& options) {
  LRUK_ASSERT(options.window >= 1, "window must be positive");
  LRUK_ASSERT(options.pre_shift_refs >= 4 * options.window,
              "pre-shift phase too short for a steady-state estimate");

  auto built = MakeSimulatedPolicy(
      config, gen, options.capacity,
      options.pre_shift_refs + options.post_shift_refs);
  if (!built.ok()) return built.status();
  ReplacementPolicy& policy = **built;

  ConvergenceResult result;
  result.policy_name = std::string(policy.Name());

  // Pre-shift: run to the boundary, averaging windows over the last
  // quarter for the steady-state estimate.
  uint64_t steady_start = options.pre_shift_refs * 3 / 4;
  uint64_t hits_in_window = 0;
  uint64_t steady_windows = 0;
  double steady_sum = 0.0;
  for (uint64_t i = 0; i < options.pre_shift_refs; ++i) {
    if (ReferenceStep(policy, options.capacity, gen.Next()).hit) {
      ++hits_in_window;
    }
    if ((i + 1) % options.window == 0) {
      if (i >= steady_start) {
        steady_sum +=
            static_cast<double>(hits_in_window) / options.window;
        ++steady_windows;
      }
      hits_in_window = 0;
    }
  }
  LRUK_ASSERT(steady_windows > 0, "no steady-state windows measured");
  result.steady_state = steady_sum / static_cast<double>(steady_windows);

  // Post-shift: windowed ratios until recovery (but record the full
  // horizon for plotting).
  hits_in_window = 0;
  double target = options.recovery_fraction * result.steady_state;
  for (uint64_t i = 0; i < options.post_shift_refs; ++i) {
    if (ReferenceStep(policy, options.capacity, gen.Next()).hit) {
      ++hits_in_window;
    }
    if ((i + 1) % options.window == 0) {
      double ratio = static_cast<double>(hits_in_window) / options.window;
      result.post_shift_windows.push_back(ratio);
      if (!result.recovery_refs.has_value() && ratio >= target) {
        result.recovery_refs = i + 1;
      }
      hits_in_window = 0;
    }
  }
  return result;
}

}  // namespace lruk
