// Cache simulation harness reproducing the paper's Section 4 methodology:
// "The buffer hit ratio for each algorithm was evaluated by first allowing
// the algorithm to reach a quasi-stable state, dropping the initial set of
// 10*N1 references, and then measuring the next T = 30*N1 references."
//
// RunSimulation drives one policy over one workload at a fixed buffer
// capacity B, with a warmup phase (counted but not measured) followed by a
// measurement phase. SimulatePolicy additionally handles the oracle
// policies' context needs (A0 probabilities, Belady future trace).

#ifndef LRUK_SIM_SIMULATOR_H_
#define LRUK_SIM_SIMULATOR_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/policy_factory.h"
#include "core/replacement_policy.h"
#include "util/status.h"
#include "workload/workload.h"

namespace lruk {

struct SimOptions {
  // Buffer capacity B in pages.
  size_t capacity = 100;
  // References dropped while reaching the quasi-stable state.
  uint64_t warmup_refs = 1000;
  // References measured after warmup.
  uint64_t measure_refs = 3000;
  // Collect per-class hit statistics and final buffer composition.
  bool track_classes = true;
  // When the workload exposes true stationary probabilities, sample the
  // expected cost of the buffer state (formula 3.8: 1 - sum of beta over
  // resident pages) every `cost_sample_interval` measured references into
  // SimResult::mean_expected_cost. 0 disables sampling.
  uint64_t cost_sample_interval = 0;
};

// Hit statistics for one page class.
struct ClassStats {
  std::string name;
  uint64_t refs = 0;      // Measured-phase references to this class.
  uint64_t hits = 0;
  uint64_t resident_at_end = 0;  // Buffer composition after the run.

  double HitRatio() const {
    return refs == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(refs);
  }
};

struct SimResult {
  std::string policy_name;
  size_t capacity = 0;
  uint64_t warmup_refs = 0;
  uint64_t measure_refs = 0;
  uint64_t hits = 0;        // Measured phase only.
  uint64_t misses = 0;      // Measured phase only.
  uint64_t evictions = 0;   // Whole run.
  uint64_t total_misses = 0;  // Whole run (disk reads).
  // Mean of formula (3.8) over the measured phase (see
  // SimOptions::cost_sample_interval); negative when not sampled.
  double mean_expected_cost = -1.0;
  std::vector<ClassStats> classes;

  // The paper's C = h / T.
  double HitRatio() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// Drives `policy` over `generator` (which is NOT reset first — callers
// control stream position) for warmup + measure references.
SimResult RunSimulation(ReplacementPolicy& policy,
                        ReferenceStringGenerator& generator,
                        const SimOptions& options);

// Builds the policy `config` names for a buffer of `capacity` frames,
// resolving the oracles' context from `generator`: A0's stationary
// probabilities, and Belady's future as the first `trace_length`
// references. Leaves the generator reset, so the run that follows sees the
// string the oracle saw.
Result<std::unique_ptr<ReplacementPolicy>> MakeSimulatedPolicy(
    const PolicyConfig& config, ReferenceStringGenerator& generator,
    size_t capacity, uint64_t trace_length);

// Builds the policy from `config` (MakeSimulatedPolicy) and runs it from
// the start of the string. Every policy compared through this entry point
// therefore sees the identical reference string.
Result<SimResult> SimulatePolicy(const PolicyConfig& config,
                                 ReferenceStringGenerator& generator,
                                 const SimOptions& options);

}  // namespace lruk

#endif  // LRUK_SIM_SIMULATOR_H_
