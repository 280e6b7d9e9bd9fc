// Trace characterization — the analyses the paper itself ran on the bank
// trace in Section 4.3:
//
//  * access skew quantiles: "40% of the references access only 3% of the
//    database pages", "90% of the references access 65% of the pages";
//  * the Five Minute Rule census: "only about 1400 pages satisfy the
//    criterion of the Five Minute Rule to be kept in memory (i.e., are
//    re-referenced within 100 seconds). Thus, a buffer size of 1400 pages
//    is actually the economically optimal configuration."
//
// Given any reference vector (e.g. loaded via ReadTraceFile), these
// helpers compute the same statistics, so users can characterize their
// own traces and size buffers / Retained Information Periods the way the
// paper does.

#ifndef LRUK_SIM_TRACE_ANALYSIS_H_
#define LRUK_SIM_TRACE_ANALYSIS_H_

#include <cstdint>
#include <vector>

#include "workload/workload.h"

namespace lruk {

struct TraceProfile {
  uint64_t total_references = 0;
  uint64_t distinct_pages = 0;
  uint64_t write_references = 0;
  // Reference counts per page, sorted descending (the skew profile).
  std::vector<uint64_t> sorted_page_counts;
};

// Single pass over the trace.
TraceProfile ProfileTrace(const std::vector<AccessRecord>& refs);

// Smallest fraction of (accessed) pages receiving `ref_fraction` of the
// references — e.g. AccessSkew(profile, 0.40) answers "what fraction of
// pages gets 40% of the references?" (the paper reports 0.03).
double AccessSkew(const TraceProfile& profile, double ref_fraction);

// Number of distinct pages that are re-referenced at least once within
// `horizon` references of a previous reference. A permissive census: on a
// long trace almost any recurring page eventually has one short gap.
uint64_t PagesReReferencedWithin(const std::vector<AccessRecord>& refs,
                                 uint64_t horizon);

// The Five Minute Rule census proper: pages whose MEAN interarrival over
// the trace is at most `horizon` references (count >= trace length /
// horizon) — the criterion behind the paper's "only about 1400 pages
// satisfy the criterion of the Five Minute Rule to be kept in memory",
// with `horizon` playing the role of "100 seconds" in reference counts.
uint64_t PagesWithMeanInterarrivalWithin(const TraceProfile& profile,
                                         uint64_t horizon);

// Interarrival distribution across all uncorrelated page re-references:
// returns the requested percentiles (each in [0,100]) of the gaps, in
// reference counts. Pages referenced once contribute nothing.
std::vector<uint64_t> InterarrivalPercentiles(
    const std::vector<AccessRecord>& refs,
    const std::vector<double>& percentiles);

}  // namespace lruk

#endif  // LRUK_SIM_TRACE_ANALYSIS_H_
