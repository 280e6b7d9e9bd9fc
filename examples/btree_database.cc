// A small persistent database: FileDiskManager + BufferPool running LRU-2
// + the disk B+tree as a clustered index + the slotted-page heap file for
// the row payloads — the full substrate stack the paper's algorithm is
// designed to serve.
//
//   $ ./btree_database [path]
//
// Loads 50,000 key-value pairs, runs point lookups, a range scan and
// deletes, then reports buffer and disk statistics. The pool is much
// smaller than the tree, so the run actually pages against the file; the
// FileDiskManager + `root` re-attach constructor argument are the pieces a
// persistent deployment would use to survive restarts.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "btree/btree.h"
#include "bufferpool/buffer_pool.h"
#include "core/lru_k.h"
#include "heap/heap_file.h"
#include "storage/file_disk_manager.h"
#include "util/random.h"

int main(int argc, char** argv) {
  using namespace lruk;

  std::string path = argc > 1 ? argv[1] : "/tmp/lruk_btree_example.db";
  std::remove(path.c_str());  // Fresh demo database each run.

  FileDiskManager disk(path);
  if (!disk.Valid()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  LruKOptions policy_options;
  policy_options.k = 2;
  BufferPool pool(64, &disk, std::make_unique<LruKPolicy>(policy_options));
  BTree tree(&pool);
  HeapFile heap(&pool);

  constexpr uint64_t kRows = 50000;
  std::printf("loading %llu rows into %s ...\n",
              static_cast<unsigned long long>(kRows), path.c_str());
  char row[64];
  for (uint64_t k = 0; k < kRows; ++k) {
    std::snprintf(row, sizeof(row), "customer-%llu balance=%llu",
                  static_cast<unsigned long long>(k),
                  static_cast<unsigned long long>(k * k % 97));
    auto rid = heap.Insert(row);
    if (!rid.ok()) return 1;
    Status status = tree.Insert(k, rid->Pack());
    if (!status.ok()) {
      std::fprintf(stderr, "insert %llu: %s\n",
                   static_cast<unsigned long long>(k),
                   status.ToString().c_str());
      return 1;
    }
  }
  std::printf("root page %llu, %llu keys, tree pages: %llu, heap pages: "
              "%llu\n",
              static_cast<unsigned long long>(tree.RootPageId()),
              static_cast<unsigned long long>(tree.Size()),
              static_cast<unsigned long long>(*tree.CountPages()),
              static_cast<unsigned long long>(heap.CountPages()));

  // Point lookups with a skewed pattern (the hot head gets most probes).
  RandomEngine rng(2026);
  uint64_t found = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.NextBounded(rng.NextBernoulli(0.8) ? kRows / 20
                                                          : kRows);
    auto rid = tree.Get(key);
    if (rid.ok() && heap.Get(RecordId::Unpack(*rid)).ok()) ++found;
  }
  std::printf("probes: 20000, rows fetched: %llu\n",
              static_cast<unsigned long long>(found));

  // Range scan: index window, then row fetches through the heap.
  auto range = tree.Range(1000, 1004);
  if (range.ok()) {
    std::printf("scan [1000,1004]:\n");
    for (auto [k, packed] : *range) {
      auto record = heap.Get(RecordId::Unpack(packed));
      if (record.ok()) {
        std::printf("  %llu -> %s\n", static_cast<unsigned long long>(k),
                    record->c_str());
      }
    }
  }

  // Delete a stripe (index entry + heap row) and verify.
  for (uint64_t k = 0; k < 1000; ++k) {
    uint64_t key = k * 7 % kRows;
    auto rid = tree.Get(key);
    if (!rid.ok() || !heap.Delete(RecordId::Unpack(*rid)).ok() ||
        !tree.Delete(key).ok()) {
      std::fprintf(stderr, "delete failed\n");
      return 1;
    }
  }
  Status check = tree.CheckInvariants();
  std::printf("after 1000 deletes: %llu keys, invariants: %s\n",
              static_cast<unsigned long long>(tree.Size()),
              check.ok() ? "OK" : check.ToString().c_str());

  if (!pool.FlushAll().ok()) return 1;
  BufferPoolStats stats = pool.stats();
  std::printf("\nbuffer pool: %.1f%% hit ratio; %s\n",
              100.0 * stats.HitRatio(), FormatCounters(stats).c_str());
  std::printf("disk: %llu reads, %llu writes, %llu pages allocated\n",
              static_cast<unsigned long long>(disk.stats().reads),
              static_cast<unsigned long long>(disk.stats().writes),
              static_cast<unsigned long long>(disk.NumAllocatedPages()));
  return 0;
}
