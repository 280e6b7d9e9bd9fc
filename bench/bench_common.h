// Shared plumbing for the hand-rolled benches: provenance stamping for the
// BENCH_*.json artifacts. A result file without the producing commit and
// build flavour is unreviewable (a Debug-built number silently compared to
// a Release one, a stale JSON from three commits ago), so run_quick.sh
// passes --git-sha / --sanitizer (and --build-type when asked) to every
// bench and each bench embeds them verbatim in its JSON. The build type
// defaults to the one the bench was compiled in, which bench/CMakeLists.txt
// defines as LRUK_BENCH_BUILD_TYPE; a program built without it (bench/e2e)
// says "unknown".

#ifndef LRUK_BENCH_BENCH_COMMON_H_
#define LRUK_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#ifndef LRUK_BENCH_BUILD_TYPE
#define LRUK_BENCH_BUILD_TYPE "unknown"
#endif

namespace lruk {

struct BenchProvenance {
  std::string git_sha = "unknown";
  std::string build_type = LRUK_BENCH_BUILD_TYPE;
  std::string sanitizer = "none";
  // Hardware cores on the machine that produced the numbers (0 when the
  // runtime cannot tell). Threaded-bench results are meaningless to
  // compare across core counts, so the artifact records it.
  unsigned cores = std::thread::hardware_concurrency();
  // Worker/client threads the bench actually used; benches that sweep
  // thread counts stamp the maximum swept. 0 = single-threaded bench.
  unsigned threads = 0;
};

// Consumes one provenance flag (plus its value) at argv[*i] if present;
// returns true and advances *i past the value on a match. Call from the
// bench's flag loop before rejecting unknown arguments.
inline bool ParseProvenanceFlag(int argc, char** argv, int* i,
                                BenchProvenance* provenance) {
  auto take = [&](const char* flag, std::string* out) {
    if (std::strcmp(argv[*i], flag) != 0 || *i + 1 >= argc) return false;
    *out = argv[++*i];
    return true;
  };
  return take("--git-sha", &provenance->git_sha) ||
         take("--build-type", &provenance->build_type) ||
         take("--sanitizer", &provenance->sanitizer);
}

// Emits `"provenance": {...}` (no trailing comma or newline) into an
// open JSON object.
inline void WriteProvenanceJson(std::FILE* f,
                                const BenchProvenance& provenance) {
  std::fprintf(f,
               "  \"provenance\": {\"git_sha\": \"%s\", "
               "\"build_type\": \"%s\", \"sanitizer\": \"%s\", "
               "\"cores\": %u, \"threads\": %u}",
               provenance.git_sha.c_str(), provenance.build_type.c_str(),
               provenance.sanitizer.c_str(), provenance.cores,
               provenance.threads);
}

}  // namespace lruk

#endif  // LRUK_BENCH_BENCH_COMMON_H_
