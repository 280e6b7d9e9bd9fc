#include "sim/simulator.h"

#include <optional>
#include <utility>

#include "sim/cost_model.h"
#include "sim/stats.h"

namespace lruk {

SimResult RunSimulation(ReplacementPolicy& policy,
                        ReferenceStringGenerator& generator,
                        const SimOptions& options) {
  LRUK_ASSERT(options.capacity >= 1, "capacity must be positive");
  SimResult result;
  result.policy_name = std::string(policy.Name());
  result.capacity = options.capacity;
  result.warmup_refs = options.warmup_refs;
  result.measure_refs = options.measure_refs;

  std::optional<std::vector<double>> probabilities;
  RunningStats cost_stats;
  if (options.cost_sample_interval != 0) {
    probabilities = generator.Probabilities();
  }

  const bool classes = options.track_classes;
  if (classes) {
    result.classes.resize(generator.NumClasses());
    for (uint32_t c = 0; c < generator.NumClasses(); ++c) {
      result.classes[c].name = std::string(generator.ClassName(c));
    }
  }

  const uint64_t total = options.warmup_refs + options.measure_refs;
  for (uint64_t i = 0; i < total; ++i) {
    const AccessRecord ref = generator.Next();
    const auto [hit, victim] = ReferenceStep(policy, options.capacity, ref);
    if (!hit) ++result.total_misses;
    if (victim.has_value()) ++result.evictions;
    if (i >= options.warmup_refs) {
      (hit ? result.hits : result.misses) += 1;
      if (classes) {
        ClassStats& cs = result.classes[generator.ClassOf(ref.page)];
        ++cs.refs;
        if (hit) ++cs.hits;
      }
      if (probabilities.has_value() &&
          (i - options.warmup_refs) % options.cost_sample_interval == 0) {
        // Formula (3.8): the probability the next reference misses.
        double covered = 0.0;
        policy.ForEachResident([&](PageId p) {
          if (p < probabilities->size()) covered += (*probabilities)[p];
        });
        cost_stats.Add(covered < 1.0 ? 1.0 - covered : 0.0);
      }
    }
  }

  if (cost_stats.Count() > 0) {
    result.mean_expected_cost = cost_stats.Mean();
  }

  if (classes) {
    policy.ForEachResident([&](PageId p) {
      ++result.classes[generator.ClassOf(p)].resident_at_end;
    });
  }
  return result;
}

Result<std::unique_ptr<ReplacementPolicy>> MakeSimulatedPolicy(
    const PolicyConfig& config, ReferenceStringGenerator& generator,
    size_t capacity, uint64_t trace_length) {
  PolicyContext context;
  context.capacity = capacity;
  if (config.kind == PolicyKind::kA0) {
    auto probs = generator.Probabilities();
    if (!probs) {
      return Status::InvalidArgument(
          "A0 requires a workload with known stationary probabilities");
    }
    context.probabilities = std::move(*probs);
  }
  if (config.kind == PolicyKind::kBelady) {
    generator.Reset();
    context.trace = MaterializeTrace(generator, trace_length);
  }
  generator.Reset();
  return MakePolicy(config, context);
}

Result<SimResult> SimulatePolicy(const PolicyConfig& config,
                                 ReferenceStringGenerator& generator,
                                 const SimOptions& options) {
  auto policy =
      MakeSimulatedPolicy(config, generator, options.capacity,
                          options.warmup_refs + options.measure_refs);
  if (!policy.ok()) return policy.status();
  return RunSimulation(**policy, generator, options);
}

}  // namespace lruk
