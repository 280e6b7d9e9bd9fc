#include "sim/trace_analysis.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/macros.h"

namespace lruk {

TraceProfile ProfileTrace(const std::vector<AccessRecord>& refs) {
  TraceProfile profile;
  profile.total_references = refs.size();
  std::unordered_map<PageId, uint64_t> counts;
  for (const AccessRecord& ref : refs) {
    ++counts[ref.page];
    if (ref.type == AccessType::kWrite) ++profile.write_references;
  }
  profile.distinct_pages = counts.size();
  profile.sorted_page_counts.reserve(counts.size());
  for (const auto& [page, count] : counts) {
    profile.sorted_page_counts.push_back(count);
  }
  std::sort(profile.sorted_page_counts.begin(),
            profile.sorted_page_counts.end(), std::greater<uint64_t>());
  return profile;
}

double AccessSkew(const TraceProfile& profile, double ref_fraction) {
  LRUK_ASSERT(ref_fraction >= 0.0 && ref_fraction <= 1.0,
              "ref_fraction must be in [0,1]");
  if (profile.total_references == 0) return 0.0;
  uint64_t target = static_cast<uint64_t>(
      std::ceil(ref_fraction * static_cast<double>(profile.total_references)));
  uint64_t covered = 0;
  uint64_t pages = 0;
  for (uint64_t count : profile.sorted_page_counts) {
    if (covered >= target) break;
    covered += count;
    ++pages;
  }
  return static_cast<double>(pages) /
         static_cast<double>(profile.distinct_pages);
}

uint64_t PagesReReferencedWithin(const std::vector<AccessRecord>& refs,
                                 uint64_t horizon) {
  std::unordered_map<PageId, uint64_t> last_seen;
  std::unordered_map<PageId, bool> qualifies;
  for (uint64_t t = 0; t < refs.size(); ++t) {
    PageId p = refs[t].page;
    auto it = last_seen.find(p);
    if (it != last_seen.end() && t - it->second <= horizon) {
      qualifies[p] = true;
    }
    last_seen[p] = t;
  }
  uint64_t count = 0;
  for (const auto& [page, ok] : qualifies) {
    if (ok) ++count;
  }
  return count;
}

uint64_t PagesWithMeanInterarrivalWithin(const TraceProfile& profile,
                                         uint64_t horizon) {
  LRUK_ASSERT(horizon >= 1, "horizon must be positive");
  // Mean interarrival of a page with c references over a trace of length L
  // is ~L/c, so the criterion is c >= L/horizon. Counts are sorted
  // descending: binary search for the cutoff.
  double needed = static_cast<double>(profile.total_references) /
                  static_cast<double>(horizon);
  uint64_t threshold = static_cast<uint64_t>(std::ceil(needed));
  if (threshold < 2) threshold = 2;  // A once-referenced page never recurs.
  const auto& counts = profile.sorted_page_counts;
  // upper_bound with greater<>: first element strictly below the
  // threshold, so the prefix is exactly the pages with count >= threshold.
  auto it = std::upper_bound(counts.begin(), counts.end(), threshold,
                             std::greater<uint64_t>());
  return static_cast<uint64_t>(it - counts.begin());
}

std::vector<uint64_t> InterarrivalPercentiles(
    const std::vector<AccessRecord>& refs,
    const std::vector<double>& percentiles) {
  std::unordered_map<PageId, uint64_t> last_seen;
  std::vector<uint64_t> gaps;
  for (uint64_t t = 0; t < refs.size(); ++t) {
    PageId p = refs[t].page;
    auto it = last_seen.find(p);
    if (it != last_seen.end()) gaps.push_back(t - it->second);
    last_seen[p] = t;
  }
  std::vector<uint64_t> out;
  out.reserve(percentiles.size());
  if (gaps.empty()) {
    out.assign(percentiles.size(), 0);
    return out;
  }
  std::sort(gaps.begin(), gaps.end());
  for (double pct : percentiles) {
    LRUK_ASSERT(pct >= 0.0 && pct <= 100.0, "percentile out of range");
    size_t idx = static_cast<size_t>(
        pct / 100.0 * static_cast<double>(gaps.size() - 1) + 0.5);
    out.push_back(gaps[idx]);
  }
  return out;
}

}  // namespace lruk
