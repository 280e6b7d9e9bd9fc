// Trace analyzer: characterizes a page-reference trace the way the paper
// characterized the bank trace in Section 4.3, then recommends buffer and
// LRU-2 parameter settings from the measurements.
//
//   $ ./trace_analyzer <trace-file>     # analyze your own trace
//   $ ./trace_analyzer                  # demo on the synthetic OLTP trace
//
// Reports: skew quantiles ("X% of references access Y% of pages"), the
// interarrival distribution, the Five Minute Rule census (how many pages
// are worth buffering at a given re-reference horizon — the paper found
// 1400 and called that "the economically optimal configuration"), and
// hit-ratio spot checks at the recommended buffer size.

#include <cstdio>
#include <string>

#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "sim/table.h"
#include "sim/trace_analysis.h"
#include "workload/synthetic_oltp.h"
#include "workload/trace.h"

int main(int argc, char** argv) {
  using namespace lruk;

  std::vector<AccessRecord> refs;
  std::string source;
  if (argc > 1) {
    auto loaded = ReadTraceFile(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      return 1;
    }
    refs = std::move(*loaded);
    source = argv[1];
  } else {
    SyntheticOltpOptions options;
    options.num_pages = 25000;
    options.seed = 20260705;
    SyntheticOltpWorkload gen(options);
    refs = MaterializeRefs(gen, 470000);
    source = "synthetic OLTP demo (470k refs)";
  }

  TraceProfile profile = ProfileTrace(refs);
  std::printf("trace: %s\n", source.c_str());
  std::printf("  references: %llu (%.1f%% writes), distinct pages: %llu\n\n",
              static_cast<unsigned long long>(profile.total_references),
              100.0 * profile.write_references / profile.total_references,
              static_cast<unsigned long long>(profile.distinct_pages));

  std::printf("access skew (the paper reported 40%% -> 3%% and 90%% -> "
              "65%% for the bank trace):\n");
  for (double frac : {0.40, 0.50, 0.75, 0.90}) {
    std::printf("  %2.0f%% of references access %5.1f%% of the pages\n",
                100 * frac, 100 * AccessSkew(profile, frac));
  }

  auto pct = InterarrivalPercentiles(refs, {50, 90, 99});
  std::printf("\ninterarrival gaps (refs): p50=%llu p90=%llu p99=%llu\n",
              static_cast<unsigned long long>(pct[0]),
              static_cast<unsigned long long>(pct[1]),
              static_cast<unsigned long long>(pct[2]));

  // The Five Minute Rule census at several horizons. The paper's 100
  // seconds at ~130 refs/s is ~13000 references.
  std::printf("\nFive Minute Rule census (mean interarrival <= horizon H; "
              "the permissive any-gap census in parentheses):\n");
  AsciiTable census({"H (refs)", "buffer-worthy pages", "(any-gap)"});
  uint64_t economic = 0;
  for (uint64_t horizon : {1000u, 4000u, 13000u, 50000u}) {
    uint64_t pages = PagesWithMeanInterarrivalWithin(profile, horizon);
    if (horizon == 13000u) economic = pages;
    census.AddRow({AsciiTable::Integer(horizon), AsciiTable::Integer(pages),
                   AsciiTable::Integer(PagesReReferencedWithin(refs, horizon))});
  }
  census.Print();
  std::printf("\nrecommendation (paper Section 4.3 logic): the economic "
              "buffer size at the ~100s horizon is ~%llu pages; a "
              "Retained Information Period of ~2x the horizon (26000 "
              "refs) preserves LRU-2's view of exactly those pages.\n",
              static_cast<unsigned long long>(economic));

  // Spot-check hit ratios at the recommended size.
  size_t capacity = economic > 0 ? economic : 100;
  TraceWorkload gen(std::move(refs));
  SimOptions sim;
  sim.capacity = capacity;
  sim.warmup_refs = gen.size() / 5;
  sim.measure_refs = gen.size() - sim.warmup_refs;
  sim.track_classes = false;
  std::printf("\nhit ratios at the economic buffer size (%zu pages):\n",
              capacity);
  for (const char* name : {"LRU", "LRU-2", "LFU"}) {
    auto result = SimulatePolicy(*ParsePolicyName(name), gen, sim);
    if (!result.ok()) return 1;
    std::printf("  %-6s %.3f\n", name, result->HitRatio());
  }
  return 0;
}
