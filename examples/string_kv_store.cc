// A string-keyed KV store: StringBTree (clustered index over byte keys)
// + HeapFile (row payloads) + BufferPool(LRU-2) + simulated disk. The
// Section 5 "post-relational" setting: keys are strings, rows vary in
// size, and the buffer manager has no hints — exactly where the paper
// argues a self-reliant policy is required.
//
//   $ ./string_kv_store
//
// Loads customer rows keyed by "cust-XXXXX", runs skewed lookups, a prefix
// scan, and updates, then prints buffer statistics.

#include <cstdio>
#include <memory>
#include <string>

#include "btree/string_btree.h"
#include "bufferpool/buffer_pool.h"
#include "core/lru_k.h"
#include "heap/heap_file.h"
#include "storage/sim_disk_manager.h"
#include "util/random.h"

int main() {
  using namespace lruk;

  SimDiskManager disk;
  LruKOptions policy_options;
  policy_options.k = 2;
  BufferPool pool(96, &disk, std::make_unique<LruKPolicy>(policy_options));
  StringBTree index(&pool);
  HeapFile rows(&pool);

  constexpr int kCustomers = 20000;
  std::printf("loading %d customers...\n", kCustomers);
  char key[32];
  char row[160];
  for (int i = 0; i < kCustomers; ++i) {
    std::snprintf(key, sizeof(key), "cust-%05d", i);
    std::snprintf(row, sizeof(row),
                  "{\"id\":%d,\"name\":\"customer %d\",\"balance\":%d}",
                  i, i, (i * 37) % 10000);
    auto rid = rows.Insert(row);
    if (!rid.ok()) return 1;
    if (!index.Insert(key, rid->Pack()).ok()) return 1;
  }
  std::printf("index entries: %llu, heap records: %llu\n\n",
              static_cast<unsigned long long>(index.Size()),
              static_cast<unsigned long long>(rows.Size()));

  // Skewed lookups: 80% of probes to the first 5% of customers.
  pool.ResetStats();
  RandomEngine rng(8128);
  int found = 0;
  for (int probe = 0; probe < 30000; ++probe) {
    int id = static_cast<int>(rng.NextBounded(
        rng.NextBernoulli(0.8) ? kCustomers / 20 : kCustomers));
    std::snprintf(key, sizeof(key), "cust-%05d", id);
    auto rid = index.Get(key);
    if (rid.ok() && rows.Get(RecordId::Unpack(*rid)).ok()) ++found;
  }
  std::printf("probes: 30000, rows fetched: %d\n", found);

  // Prefix scan: all customers in [cust-00100, cust-00104].
  std::printf("scan [cust-00100, cust-00104]:\n");
  Status scan = index.Scan(
      "cust-00100", "cust-00104",
      [&rows](std::string_view k, uint64_t packed) {
        auto record = rows.Get(RecordId::Unpack(packed));
        if (record.ok()) {
          std::printf("  %.*s -> %s\n", static_cast<int>(k.size()),
                      k.data(), record->c_str());
        }
        return true;
      });
  if (!scan.ok()) return 1;

  // Updates: bump the hot customers' balances. The wider row is updated
  // in place when its page has room; otherwise it moves to a new slot and
  // the index follows it.
  for (int i = 0; i < 1000; ++i) {
    std::snprintf(key, sizeof(key), "cust-%05d", i);
    auto rid = index.Get(key);
    if (!rid.ok()) return 1;
    std::snprintf(row, sizeof(row),
                  "{\"id\":%d,\"name\":\"customer %d\",\"balance\":%d}",
                  i, i, 424242);
    Status updated = rows.Update(RecordId::Unpack(*rid), row);
    if (updated.code() == StatusCode::kResourceExhausted) {
      if (!rows.Delete(RecordId::Unpack(*rid)).ok()) return 1;
      auto moved = rows.Insert(row);
      if (!moved.ok()) return 1;
      updated = index.Update(key, moved->Pack());
    }
    if (!updated.ok()) return 1;
  }
  Status check = index.CheckInvariants();
  std::printf("\nafter 1000 updates, index invariants: %s\n",
              check.ok() ? "OK" : check.ToString().c_str());

  BufferPoolStats stats = pool.stats();
  std::printf("buffer pool: %.1f%% hit ratio; %s\n",
              100.0 * stats.HitRatio(), FormatCounters(stats).c_str());
  return 0;
}
