// Bookkeeping-overhead microbenchmark (the paper's claim that LRU-K "is
// fairly simple and incurs little bookkeeping overhead"). Two parts:
//
//  1. Catalog sweep — nanoseconds per reference (ReferenceStep, the full
//     hit-or-admit-with-eviction step at a fixed buffer size) for every
//     policy in the catalog, on the Zipfian 80-20 stream. An 8.5 ms 1993
//     disk read is ~10^5 of these steps, so sub-microsecond numbers
//     substantiate the claim. The `adaptive:` rows price the
//     meta-policy's ghost caches against the bare expert.
//
//  2. Lazy-heap throughput — LRU-2's victim search (DESIGN.md "Victim
//     search") at two resident-set sizes, on a 95%-hot / 5%-cold stream:
//     mostly hits (where the heap does nothing) with enough cold misses to
//     keep evictions honest. CI puts a coarse floor under these cells.
//     That the heap picks Figure 2.1's victims is a ctest property
//     (LruKOracleEquivalence), not a bench check.
//
// Flags: --json <path>, --quick, and the provenance flags of
// bench_common.h (--git-sha/--build-type/--sanitizer, stamped into the
// JSON by run_quick.sh).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/lru_k.h"
#include "core/policy_factory.h"
#include "sim/table.h"
#include "util/random.h"
#include "workload/zipfian_workload.h"

namespace lruk {
namespace {

constexpr size_t kCatalogCapacity = 1024;

// --- Part 1: catalog sweep -------------------------------------------------

std::vector<PageId> ZipfTrace(size_t length) {
  ZipfianOptions zopt;
  zopt.num_pages = 16384;
  zopt.seed = 77;
  ZipfianWorkload gen(zopt);
  return MaterializeTrace(gen, length);
}

struct CatalogRow {
  std::string name;
  double ns_per_ref = 0.0;
};

CatalogRow RunCatalog(const std::string& label, const PolicyConfig& config,
                      const std::vector<PageId>& trace, uint64_t ops) {
  PolicyContext context;
  context.capacity = kCatalogCapacity;
  auto policy = MakePolicy(config, context);
  LRUK_ASSERT(policy.ok(), "catalog policy failed to build");
  ReplacementPolicy& p = **policy;

  // One full pass to warm the resident set, then the timed loop.
  for (PageId page : trace) ReferenceStep(p, kCatalogCapacity, {.page = page});
  size_t i = 0;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t n = 0; n < ops; ++n) {
    ReferenceStep(p, kCatalogCapacity, {.page = trace[i]});
    if (++i == trace.size()) i = 0;
  }
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return CatalogRow{label, seconds * 1e9 / static_cast<double>(ops)};
}

// --- Part 2: lazy-heap throughput -------------------------------------------

// 95% uniform over a hot set that fits in the buffer, 5% uniform over a
// 10x-capacity cold range: a high hit rate (the regime the lazy heap
// optimizes) with a steady eviction trickle (so PickVictim is exercised).
std::vector<PageId> HotColdTrace(size_t resident, size_t length,
                                 uint64_t seed) {
  std::vector<PageId> trace;
  trace.reserve(length);
  RandomEngine rng(seed);
  uint64_t hot = resident * 3 / 4;
  uint64_t cold = resident * 10;
  for (size_t i = 0; i < length; ++i) {
    if (rng.NextBernoulli(0.95)) {
      trace.push_back(1 + rng.NextBounded(hot));
    } else {
      trace.push_back(1 + hot + rng.NextBounded(cold));
    }
  }
  return trace;
}

struct HeapCell {
  size_t resident = 0;
  double ops_per_sec = 0.0;
  double ns_per_ref = 0.0;
};

HeapCell RunHeapCell(size_t resident, const std::vector<PageId>& trace,
                     uint64_t ops) {
  LruKPolicy p(LruKOptions{.k = 2, .capacity_hint = resident});
  for (PageId page : trace) ReferenceStep(p, resident, {.page = page});
  size_t i = 0;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t n = 0; n < ops; ++n) {
    ReferenceStep(p, resident, {.page = trace[i]});
    if (++i == trace.size()) i = 0;
  }
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  HeapCell cell{resident};
  cell.ops_per_sec =
      seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
  cell.ns_per_ref = seconds * 1e9 / static_cast<double>(ops);
  return cell;
}

void WriteJson(const char* path, const BenchProvenance& provenance,
               const std::vector<CatalogRow>& catalog,
               const std::vector<HeapCell>& cells) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_policy_overhead\",\n");
  WriteProvenanceJson(f, provenance);
  std::fprintf(f, ",\n  \"catalog_capacity\": %zu,\n  \"catalog\": [\n",
               kCatalogCapacity);
  for (size_t i = 0; i < catalog.size(); ++i) {
    std::fprintf(f, "    {\"policy\": \"%s\", \"ns_per_ref\": %.1f}%s\n",
                 catalog[i].name.c_str(), catalog[i].ns_per_ref,
                 i + 1 < catalog.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"lazy_heap_cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const HeapCell& c = cells[i];
    std::fprintf(f,
                 "    {\"resident\": %zu, \"ops_per_sec\": %.1f, "
                 "\"ns_per_ref\": %.1f}%s\n",
                 c.resident, c.ops_per_sec, c.ns_per_ref,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace lruk

int main(int argc, char** argv) {
  using namespace lruk;

  const char* json_path = nullptr;
  bool quick = false;
  BenchProvenance provenance;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (ParseProvenanceFlag(argc, argv, &i, &provenance)) {
      // consumed
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json <path>] [--git-sha <sha>] "
                   "[--build-type <type>] [--sanitizer <name>]\n",
                   argv[0]);
      return 2;
    }
  }

  const uint64_t catalog_ops = quick ? 1 << 16 : 1 << 20;
  const uint64_t heap_ops = quick ? 1 << 17 : 1 << 21;
  const std::vector<size_t> resident_sizes = {512, 2048};

  // --- Catalog sweep ---
  std::printf(
      "Policy bookkeeping overhead: Zipfian 80-20, %zu frames, "
      "hit-or-admit step\n\n",
      kCatalogCapacity);
  std::vector<PageId> zipf = ZipfTrace(1 << 16);
  std::vector<CatalogRow> catalog;
  auto spec = [](const char* text) {
    auto config = ParsePolicySpec(text);
    LRUK_ASSERT(config.ok(), "catalog spec failed to parse");
    return *config;
  };
  const std::vector<std::pair<std::string, PolicyConfig>> entries = {
      {"LRU", PolicyConfig::Lru()},
      {"LRU-2", PolicyConfig::LruK(2)},
      {"LRU-3", PolicyConfig::LruK(3)},
      {"LRU-2 CRP=16", PolicyConfig::LruK(2, /*crp=*/16)},
      {"LFU", PolicyConfig::Lfu()},
      {"FIFO", PolicyConfig::Of(PolicyKind::kFifo)},
      {"CLOCK", PolicyConfig::Of(PolicyKind::kClock)},
      {"GCLOCK", PolicyConfig::Of(PolicyKind::kGClock)},
      {"MRU", PolicyConfig::Of(PolicyKind::kMru)},
      {"RANDOM", PolicyConfig::Of(PolicyKind::kRandom)},
      {"2Q", PolicyConfig::TwoQ()},
      {"ARC", PolicyConfig::Arc()},
      {"adaptive:lruk2", spec("adaptive:lruk2")},
      {"adaptive:lruk2+lfu+mru", spec("adaptive:lruk2+lfu+mru")},
  };
  AsciiTable catalog_table({"policy", "ns/ref"});
  for (const auto& [label, config] : entries) {
    catalog.push_back(RunCatalog(label, config, zipf, catalog_ops));
    catalog_table.AddRow(
        {catalog.back().name, AsciiTable::Fixed(catalog.back().ns_per_ref, 1)});
  }
  catalog_table.Print();
  catalog_table.MaybeWriteCsvFromEnv("micro_policy_overhead_catalog");

  // --- Lazy-heap throughput ---
  std::printf(
      "\nLRU-2 lazy victim heap: 95%% hot / 5%% cold uniform stream\n\n");
  std::vector<HeapCell> cells;
  AsciiTable grid({"resident", "ops/sec", "ns/ref"});
  for (size_t resident : resident_sizes) {
    std::vector<PageId> trace =
        HotColdTrace(resident, 1 << 18, /*seed=*/0xBEEF + resident);
    cells.push_back(RunHeapCell(resident, trace, heap_ops));
    const HeapCell& c = cells.back();
    grid.AddRow({AsciiTable::Integer(c.resident),
                 AsciiTable::Integer(static_cast<uint64_t>(c.ops_per_sec)),
                 AsciiTable::Fixed(c.ns_per_ref, 1)});
  }
  grid.Print();
  grid.MaybeWriteCsvFromEnv("micro_policy_overhead_index");

  if (json_path != nullptr) {
    WriteJson(json_path, provenance, catalog, cells);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
