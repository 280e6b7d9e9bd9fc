// End-to-end closed-loop benchmark over the whole stack: B+tree and heap
// file on one BufferPool (default BufferPoolOptions, the paper's LRU-2) on
// a device that sleeps 200us per page read or write (timed_disk.h).
//
// Workloads (one per process; client threads run closed loop — each sends
// its next request when the previous one returns):
//   tpca      4 clients. The TPC-A transaction of examples/tpca_workload.cc
//             on 100k accounts (2,000 heap pages + ~400 index leaves) with a
//             500-frame pool: Example 1.1's index-vs-record pages, with
//             writes.
//   hot_read  3 clients. Index Get + heap Get of a 200-byte row; keys drawn
//             80-20 recursively skewed over 20k rows, all of which fit in
//             the 2,048-frame pool: the warm hit path alone. A diagnostic,
//             not scored: its times follow the host's CPU speed.
//   scan_mix  1 hot_read client plus 1 client looping HeapFile::Scan over a
//             4,000-page table, one scan page per 16 lookups, 1,000 frames:
//             Example 1.2's scan against a hot set.
// Timed runs keep every CPU busy with SCHED_IDLE spinners (IdleSpinners).
//
//   e2e_bench --workload <name> [--seed N] [--seconds S] [--trace <dir>]
//             [--git-sha X] [--build-type X]
//   e2e_bench --self-test
//
// Untraced, a run reports the end-to-end metrics. With --trace the window
// is split: an untraced half (for trace.overhead_frac and the device
// counts per transaction), then a half with the tracing decorators in
// place; the run reports the per-layer metrics and writes sampled spans
// under <dir>.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any correctness check fails.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "btree/btree.h"
#include "bufferpool/buffer_pool.h"
#include "core/policy_factory.h"
#include "heap/heap_file.h"
#include "histogram.h"
#include "storage/sim_disk_manager.h"
#include "timed_disk.h"
#include "trace.h"
#include "traced.h"
#include "util/random.h"
#include "util/zipf.h"

namespace lruk::e2e {
namespace {

// ------------------------------------------------------------------ rows

uint64_t Load64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void Store64(char* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

// hot_read / scan_mix rows: [key][checksum][184-byte payload]. 20 fit on a
// heap page.
constexpr size_t kRowBytes = 200;
constexpr size_t kPayloadOffset = 16;

uint64_t RowChecksum(const char* row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ Load64(row);
  for (size_t off = kPayloadOffset; off < kRowBytes; off += 8) {
    h = (h ^ Load64(row + off)) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

// The payload comes from the table's salt, which comes from the seed, so
// different seeds store different bytes.
void FillRow(uint64_t salt, uint64_t key, char* row) {
  Store64(row, key);
  uint64_t state = salt ^ (key * 0x9e3779b97f4a7c15ULL);
  for (size_t off = kPayloadOffset; off < kRowBytes; off += 8) {
    Store64(row + off, SplitMix64Next(state));
  }
  Store64(row + 8, RowChecksum(row));
}

bool RowValid(std::string_view row, uint64_t key) {
  return row.size() == kRowBytes && Load64(row.data()) == key &&
         Load64(row.data() + 8) == RowChecksum(row.data());
}

// tpca account rows: [account id][balance][filler]. 77 bytes puts exactly
// 50 rows on a heap page (16 + 50 * (77 + 4) <= 4096 < 16 + 51 * 81), the
// example's 2,000 record pages for 100k accounts.
constexpr size_t kAccountRowBytes = 77;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (stream * 0xd1b54a32d192ed03ULL);
  return SplitMix64Next(state);
}

// Times one bench call site into a layer.
template <typename Fn>
auto Traced(Op op, Fn&& fn) {
  Span span(op);
  return fn();
}

// ------------------------------------------------------------- workloads

// scan_mix's reference mix, a chosen value: one scan page per this many
// lookups. A lookup references 3 pages (index root, leaf, heap page), so
// 1 page reference in 49 is the scan's. The lookups and the scanner keep
// pace with each other: the scanner reads its next page once the lookups
// have earned it, and the lookups run at most kScanLeadPages pages' worth
// ahead of the scanner. Neither side can starve the other, whatever the
// pool latch's fairness, so the mix stays fixed.
constexpr uint64_t kLookupsPerScanPage = 16;
constexpr uint64_t kScanLeadPages = 2;

struct Shape {
  size_t frames = 0;
  size_t clients = 0;
  uint64_t accounts = 0;
  uint64_t tellers = 0;
  uint64_t branches = 0;
  uint64_t hot_rows = 0;
  uint64_t scan_rows = 0;
  // 0: the scanner is not paced (the single-threaded self-test).
  uint64_t lookups_per_scan_page = 0;
};

// `tiny` is the self-test shape: pools smaller than the data on every
// workload, so device and pool counts depend on the seed.
std::optional<Shape> ShapeFor(std::string_view workload, bool tiny) {
  if (workload == "tpca") {
    return tiny ? Shape{.frames = 24, .clients = 1, .accounts = 2000,
                        .tellers = 20, .branches = 2}
                : Shape{.frames = 500, .clients = 4, .accounts = 100000,
                        .tellers = 100, .branches = 10};
  }
  if (workload == "hot_read") {
    return tiny ? Shape{.frames = 32, .clients = 1, .hot_rows = 1000}
                : Shape{.frames = 2048, .clients = 3, .hot_rows = 20000};
  }
  if (workload == "scan_mix") {
    return tiny ? Shape{.frames = 40, .clients = 2, .hot_rows = 1000,
                        .scan_rows = 2000}
                : Shape{.frames = 1000, .clients = 2, .hot_rows = 20000,
                        .scan_rows = 80000,
                        .lookups_per_scan_page = kLookupsPerScanPage};
  }
  return std::nullopt;
}

constexpr int kSlices = 10;
// Untimed run-in before the window: lets the policy learn the workload
// (tpca's pool starts with whatever the load left in it).
constexpr auto kWarmupTime = std::chrono::seconds(5);
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

// One client's state and measurements. Aligned so clients do not share
// cache lines.
struct alignas(64) ClientState {
  ClientState(size_t r, RandomEngine g) : role(r), rng(g) {}

  size_t role;
  RandomEngine rng;
  uint64_t committed = 0;  // whole run, warm-up included
  uint64_t verify_errors = 0;
  // Measured window only.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::array<uint64_t, kSlices> slice_txns{};
  std::vector<Histogram> slice_latency = std::vector<Histogram>(kSlices);
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Creates and fills the tables through `pool`, claiming a device page
  // range per table.
  virtual Status Load(PoolInterface* pool, TimedDisk* disk) = 0;
  virtual bool IsScanner(size_t /*role*/) const { return false; }
  // Blocks until the workload's reference mix admits the client's next
  // request; false once the run stops. Not part of the request's latency.
  virtual bool Gate(ClientState& /*c*/) { return true; }
  // One closed-loop request: a transaction, or a scanner's full pass.
  virtual Status Step(ClientState& c) = 0;
  // Ends the run: wakes clients blocked in Gate, and a scan pass waiting
  // on the lookups ends early. Called once the clients are told to stop.
  virtual void Stop() {}
  // Device table whose reads are not charged to transactions; -1 if none.
  virtual int scan_table() const { return -1; }
  uint64_t scan_pages() const {
    return scan_pages_.load(std::memory_order_relaxed);
  }
  // Correctness once every client has stopped. `pool` is the live pool;
  // `durable` holds what a restart would see. Appends each failure.
  virtual void Check(const std::vector<ClientState>& clients,
                     BufferPool& pool, DiskManager& durable,
                     std::vector<std::string>* failures) = 0;

 protected:
  std::atomic<uint64_t> scan_pages_{0};
};

std::unique_ptr<ReplacementPolicy> MakeLru2(size_t frames) {
  auto config = ParsePolicySpec("LRU-2");
  LRUK_ASSERT(config.ok(), "LRU-2 must parse");
  PolicyContext context;
  context.capacity = frames;
  auto policy = MakePolicy(*config, context);
  LRUK_ASSERT(policy.ok(), "LRU-2 must build");
  return std::move(policy).ValueOrDie();
}

class TpcaWorkload final : public Workload {
 public:
  explicit TpcaWorkload(const Shape& shape) : shape_(shape) {}

  Status Load(PoolInterface* pool, TimedDisk* disk) override {
    disk->BeginTable("accounts.rows");
    accounts_ = std::make_unique<HeapFile>(pool);
    std::vector<uint64_t> rids;
    rids.reserve(shape_.accounts);
    char row[kAccountRowBytes] = {};
    for (uint64_t a = 0; a < shape_.accounts; ++a) {
      Store64(row, a);
      auto rid = accounts_->Insert(std::string_view(row, sizeof(row)));
      if (!rid.ok()) return rid.status();
      rids.push_back(rid->Pack());
    }
    disk->BeginTable("accounts.index");
    account_index_ = std::make_unique<BTree>(pool);
    for (uint64_t a = 0; a < shape_.accounts; ++a) {
      LRUK_RETURN_IF_ERROR(account_index_->Insert(a, rids[a]));
    }
    disk->BeginTable("tellers+branches");
    tellers_ = std::make_unique<BTree>(pool);
    for (uint64_t t = 0; t < shape_.tellers; ++t) {
      LRUK_RETURN_IF_ERROR(tellers_->Insert(t, 0));
    }
    branches_ = std::make_unique<BTree>(pool);
    for (uint64_t b = 0; b < shape_.branches; ++b) {
      LRUK_RETURN_IF_ERROR(branches_->Insert(b, 0));
    }
    // Each client appends to its own history tree: BTree is single-writer.
    disk->BeginTable("history");
    for (size_t c = 0; c < shape_.clients; ++c) {
      history_.push_back(std::make_unique<BTree>(pool));
    }
    return Status::Ok();
  }

  Status Step(ClientState& c) override {
    uint64_t account = c.rng.NextBounded(shape_.accounts);
    uint64_t teller = c.rng.NextBounded(shape_.tellers);
    uint64_t branch = teller / (shape_.tellers / shape_.branches);
    // Balances are uint64 sums mod 2^64, so a negative delta wraps.
    uint64_t delta = static_cast<uint64_t>(c.rng.NextInRange(-99999, 99999));

    auto packed =
        Traced(Op::kBtreeGet, [&] { return account_index_->Get(account); });
    if (!packed.ok()) return packed.status();
    RecordId rid = RecordId::Unpack(*packed);
    {
      // HeapFile is single-writer per record page.
      std::lock_guard<std::mutex> lock(stripes_[rid.page % kStripes]);
      auto row = Traced(Op::kHeapGet, [&] { return accounts_->Get(rid); });
      if (!row.ok()) return row.status();
      if (row->size() != kAccountRowBytes || Load64(row->data()) != account) {
        ++c.verify_errors;
        return Status::Internal("account row does not carry its key");
      }
      Store64(row->data() + 8, Load64(row->data() + 8) + delta);
      LRUK_RETURN_IF_ERROR(Traced(
          Op::kHeapUpdate, [&] { return accounts_->Update(rid, *row); }));
    }
    LRUK_RETURN_IF_ERROR(AddTo(*tellers_, teller_mu_, teller, delta));
    LRUK_RETURN_IF_ERROR(AddTo(*branches_, branch_mu_, branch, delta));
    LRUK_RETURN_IF_ERROR(Traced(Op::kBtreeInsert, [&] {
      return history_[c.role]->Insert(c.committed, delta);
    }));
    ++c.committed;
    return Status::Ok();
  }

  void Check(const std::vector<ClientState>& clients, BufferPool& pool,
             DiskManager& durable,
             std::vector<std::string>* failures) override {
    uint64_t committed = 0;
    for (const auto& c : clients) committed += c.committed;
    auto check = [&](const std::string& when, HeapFile& accounts,
                     BTree& tellers, BTree& branches,
                     const std::vector<BTree*>& history) {
      Sums sums;
      Status status = Collect(accounts, tellers, branches, history, &sums);
      if (!status.ok()) {
        failures->push_back(when + ": " + status.ToString());
        return sums;
      }
      if (!sums.keys_ok || sums.account_rows != shape_.accounts) {
        failures->push_back(when + ": account rows missing or misplaced");
      }
      if (sums.accounts != sums.tellers || sums.tellers != sums.branches ||
          sums.branches != sums.history) {
        failures->push_back(when + ": balance sums differ (accounts " +
                            std::to_string(sums.accounts) + ", tellers " +
                            std::to_string(sums.tellers) + ", branches " +
                            std::to_string(sums.branches) + ", history " +
                            std::to_string(sums.history) + ")");
      }
      if (sums.history_rows != committed) {
        failures->push_back(when + ": " + std::to_string(sums.history_rows) +
                            " history rows for " + std::to_string(committed) +
                            " committed transactions");
      }
      return sums;
    };

    std::vector<BTree*> history;
    for (const auto& h : history_) history.push_back(h.get());
    Sums live = check("live", *accounts_, *tellers_, *branches_, history);

    // Restart-durability oracle: after FlushAll, a fresh pool over the
    // durable bytes alone re-attaches every table by its root page id.
    Status flushed = pool.FlushAll();
    if (!flushed.ok()) {
      failures->push_back("FlushAll: " + flushed.ToString());
      return;
    }
    BufferPool fresh(shape_.frames, &durable, MakeLru2(shape_.frames));
    HeapFile accounts(&fresh, accounts_->HeadPageId());
    BTree tellers(&fresh, {}, tellers_->RootPageId());
    BTree branches(&fresh, {}, branches_->RootPageId());
    std::vector<std::unique_ptr<BTree>> reattached;
    std::vector<BTree*> reattached_ptrs;
    for (const auto& h : history_) {
      reattached.push_back(std::make_unique<BTree>(&fresh, BTreeOptions{},
                                                   h->RootPageId()));
      reattached_ptrs.push_back(reattached.back().get());
    }
    Sums restarted =
        check("restart", accounts, tellers, branches, reattached_ptrs);
    if (restarted != live) {
      failures->push_back("restart: tables differ from the live pool's");
    }
  }

 private:
  static constexpr size_t kStripes = 64;

  struct Sums {
    uint64_t accounts = 0;
    uint64_t account_rows = 0;
    bool keys_ok = true;
    uint64_t tellers = 0;
    uint64_t branches = 0;
    uint64_t history = 0;
    uint64_t history_rows = 0;

    bool operator==(const Sums&) const = default;
  };

  // Adds `delta` to `key`'s balance in a shared tree; `mu` serializes its
  // writers.
  static Status AddTo(BTree& tree, std::mutex& mu, uint64_t key,
                      uint64_t delta) {
    std::lock_guard<std::mutex> lock(mu);
    auto balance = Traced(Op::kBtreeGet, [&] { return tree.Get(key); });
    if (!balance.ok()) return balance.status();
    return Traced(Op::kBtreeUpdate,
                  [&] { return tree.Update(key, *balance + delta); });
  }

  static Status Collect(HeapFile& accounts, BTree& tellers, BTree& branches,
                        const std::vector<BTree*>& history, Sums* out) {
    uint64_t next_key = 0;
    LRUK_RETURN_IF_ERROR(accounts.Scan([&](RecordId, std::string_view row) {
      if (row.size() != kAccountRowBytes || Load64(row.data()) != next_key) {
        out->keys_ok = false;
      }
      out->accounts += Load64(row.data() + 8);
      ++out->account_rows;
      ++next_key;
      return true;
    }));
    auto sum_into = [](BTree& tree, uint64_t* sum, uint64_t* rows) {
      return tree.Scan(0, UINT64_MAX, [&](uint64_t, uint64_t value) {
        *sum += value;
        if (rows != nullptr) ++*rows;
        return true;
      });
    };
    LRUK_RETURN_IF_ERROR(sum_into(tellers, &out->tellers, nullptr));
    LRUK_RETURN_IF_ERROR(sum_into(branches, &out->branches, nullptr));
    for (BTree* h : history) {
      if (h->Empty()) continue;
      LRUK_RETURN_IF_ERROR(sum_into(*h, &out->history, &out->history_rows));
    }
    return Status::Ok();
  }

  Shape shape_;
  std::unique_ptr<HeapFile> accounts_;
  std::unique_ptr<BTree> account_index_;
  std::unique_ptr<BTree> tellers_;
  std::unique_ptr<BTree> branches_;
  std::vector<std::unique_ptr<BTree>> history_;
  std::array<std::mutex, kStripes> stripes_;
  std::mutex teller_mu_;
  std::mutex branch_mu_;
};

// hot_read, and scan_mix when the shape has scan rows.
class LookupWorkload final : public Workload {
 public:
  LookupWorkload(const Shape& shape, uint64_t seed)
      : shape_(shape),
        hot_salt_(Mix(seed, 1)),
        scan_salt_(Mix(seed, 2)),
        skew_(0.8, 0.2, shape.hot_rows),
        key_of_rank_(shape.hot_rows) {
    // Hot ranks map to keys through a seeded permutation, so the hottest
    // rows spread across pages instead of packing the first few.
    std::iota(key_of_rank_.begin(), key_of_rank_.end(), uint64_t{0});
    RandomEngine rng(Mix(seed, 3));
    rng.Shuffle(key_of_rank_);
  }

  Status Load(PoolInterface* pool, TimedDisk* disk) override {
    char row[kRowBytes];
    disk->BeginTable("hot.rows");
    rows_ = std::make_unique<HeapFile>(pool);
    std::vector<uint64_t> rids;
    rids.reserve(shape_.hot_rows);
    for (uint64_t k = 0; k < shape_.hot_rows; ++k) {
      FillRow(hot_salt_, k, row);
      auto rid = rows_->Insert(std::string_view(row, kRowBytes));
      if (!rid.ok()) return rid.status();
      rids.push_back(rid->Pack());
    }
    disk->BeginTable("hot.index");
    index_ = std::make_unique<BTree>(pool);
    for (uint64_t k = 0; k < shape_.hot_rows; ++k) {
      LRUK_RETURN_IF_ERROR(index_->Insert(k, rids[k]));
    }
    if (shape_.scan_rows > 0) {
      scan_table_ = static_cast<int>(disk->BeginTable("scan.rows"));
      scan_ = std::make_unique<HeapFile>(pool);
      for (uint64_t k = 0; k < shape_.scan_rows; ++k) {
        FillRow(scan_salt_, k, row);
        auto rid = scan_->Insert(std::string_view(row, kRowBytes));
        if (!rid.ok()) return rid.status();
      }
    }
    return Status::Ok();
  }

  bool IsScanner(size_t role) const override {
    return shape_.scan_rows > 0 && role == shape_.clients - 1;
  }
  int scan_table() const override { return scan_table_; }

  // A lookup waits while it would run more than kScanLeadPages pages'
  // worth of lookups ahead of the scanner.
  bool Gate(ClientState& c) override {
    const uint64_t per_page = shape_.lookups_per_scan_page;
    if (per_page == 0 || IsScanner(c.role)) return true;
    return Await([&] {
      return lookups_.load(std::memory_order_acquire) <
             (scan_pages_.load(std::memory_order_acquire) + kScanLeadPages) *
                 per_page;
    });
  }

  Status Step(ClientState& c) override {
    return IsScanner(c.role) ? ScanPass(c) : Lookup(c);
  }

  void Stop() override {
    stopping_.store(true, std::memory_order_relaxed);
    Progress();
  }

  void Check(const std::vector<ClientState>& clients, BufferPool& /*pool*/,
             DiskManager& /*durable*/,
             std::vector<std::string>* failures) override {
    uint64_t errors = 0;
    for (const auto& c : clients) errors += c.verify_errors;
    if (errors > 0) {
      failures->push_back(std::to_string(errors) +
                          " row reads failed verification");
    }
    // Every key resolves through the index to its own intact row.
    for (uint64_t k = 0; k < shape_.hot_rows; ++k) {
      auto packed = index_->Get(k);
      if (!packed.ok()) {
        failures->push_back("index lookup of key " + std::to_string(k) +
                            ": " + packed.status().ToString());
        return;
      }
      auto row = rows_->Get(RecordId::Unpack(*packed));
      if (!row.ok() || !RowValid(*row, k)) {
        failures->push_back("row of key " + std::to_string(k) +
                            " is missing or corrupt");
        return;
      }
    }
  }

 private:
  Status Lookup(ClientState& c) {
    uint64_t key = key_of_rank_[skew_.Sample(c.rng) - 1];
    auto packed = Traced(Op::kBtreeGet, [&] { return index_->Get(key); });
    if (!packed.ok()) return packed.status();
    auto row = Traced(Op::kHeapGet,
                      [&] { return rows_->Get(RecordId::Unpack(*packed)); });
    if (!row.ok()) return row.status();
    if (!RowValid(*row, key)) {
      ++c.verify_errors;
      return Status::Internal("row failed verification");
    }
    ++c.committed;
    const uint64_t per_page = shape_.lookups_per_scan_page;
    if (per_page > 0 &&
        (lookups_.fetch_add(1, std::memory_order_acq_rel) + 1) % per_page ==
            0) {
      Progress();
    }
    return Status::Ok();
  }

  // Wakes every client blocked in Await.
  void Progress() {
    progress_.fetch_add(1, std::memory_order_release);
    progress_.notify_all();
  }

  // Blocks until ready() holds; false once the run stops.
  template <typename Ready>
  bool Await(Ready ready) {
    uint32_t seen = progress_.load(std::memory_order_acquire);
    while (!stopping_.load(std::memory_order_relaxed) && !ready()) {
      progress_.wait(seen, std::memory_order_acquire);
      seen = progress_.load(std::memory_order_acquire);
    }
    return !stopping_.load(std::memory_order_relaxed);
  }

  // One pass over the scan table; a pass the run's end cuts short verifies
  // the rows it saw.
  Status ScanPass(ClientState& c) {
    const uint64_t per_page = shape_.lookups_per_scan_page;
    uint64_t expected = 0;
    PageId page = kInvalidPageId;
    bool valid = true;
    bool stopped = false;
    Status status = Traced(Op::kHeapScan, [&] {
      return scan_->Scan([&](RecordId rid, std::string_view row) {
        Span visit(Op::kScanVisit);
        if (rid.page != page) {
          page = rid.page;
          uint64_t pages =
              scan_pages_.fetch_add(1, std::memory_order_acq_rel) + 1;
          if (per_page > 0) {
            Progress();
            // The next page waits until the lookups have earned it.
            stopped = !Await([&] {
              return lookups_.load(std::memory_order_acquire) >=
                     pages * per_page;
            });
            if (stopped) return false;
          }
        }
        valid = valid && RowValid(row, expected);
        ++expected;
        return true;
      });
    });
    if (!status.ok()) return status;
    if (!valid || (!stopped && expected != shape_.scan_rows)) {
      ++c.verify_errors;
      return Status::Internal("scan pass failed verification");
    }
    ++c.committed;
    return Status::Ok();
  }

  Shape shape_;
  uint64_t hot_salt_;
  uint64_t scan_salt_;
  RecursiveSkewDistribution skew_;
  std::vector<uint64_t> key_of_rank_;
  std::unique_ptr<HeapFile> rows_;
  std::unique_ptr<BTree> index_;
  std::unique_ptr<HeapFile> scan_;
  int scan_table_ = -1;
  // Pacing state, used only when lookups_per_scan_page > 0: completed
  // lookups, and a counter bumped whenever a waiting client may proceed.
  std::atomic<uint64_t> lookups_{0};
  std::atomic<uint32_t> progress_{0};
  std::atomic<bool> stopping_{false};
};

// ----------------------------------------------------------------- stack

// One system under test. Reset() tears it down dependents-first.
struct Stack {
  Stack() = default;
  ~Stack() { Reset(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  void Reset() {
    workload.reset();
    traced_pool.reset();
    pool.reset();
    disk.reset();
    durable.reset();
  }
  PoolInterface* access() {
    return traced_pool != nullptr ? static_cast<PoolInterface*>(
                                        traced_pool.get())
                                  : pool.get();
  }

  std::unique_ptr<SimDiskManager> durable;
  std::unique_ptr<TimedDisk> disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<TracedPool> traced_pool;
  std::unique_ptr<Workload> workload;
};

// Builds the stack, loads the tables and flushes them: the set-up that
// setup_s times.
Status BuildStack(std::string_view name, const Shape& shape, uint64_t seed,
                  bool traced, Stack* s) {
  s->Reset();
  s->durable = std::make_unique<SimDiskManager>();
  s->disk = std::make_unique<TimedDisk>(s->durable.get());
  std::unique_ptr<ReplacementPolicy> policy = MakeLru2(shape.frames);
  if (traced) policy = std::make_unique<TracedPolicy>(std::move(policy));
  s->pool = std::make_unique<BufferPool>(shape.frames, s->disk.get(),
                                         std::move(policy));
  if (traced) s->traced_pool = std::make_unique<TracedPool>(s->pool.get());
  if (name == "tpca") {
    s->workload = std::make_unique<TpcaWorkload>(shape);
  } else {
    s->workload = std::make_unique<LookupWorkload>(shape, seed);
  }
  LRUK_RETURN_IF_ERROR(s->workload->Load(s->access(), s->disk.get()));
  return s->pool->FlushAll();
}

std::vector<ClientState> MakeClients(const Shape& shape, uint64_t seed) {
  RandomEngine master(Mix(seed, 4));
  std::vector<ClientState> clients;
  clients.reserve(shape.clients);
  for (size_t role = 0; role < shape.clients; ++role) {
    clients.emplace_back(role, master.Fork());
  }
  return clients;
}

// Counters a window's deltas are taken from.
struct Counters {
  BufferPoolStats pool;
  TimedDisk::Counters device;
  IoDispatcherStats io;
  uint64_t scan_pages = 0;
};

Counters Snap(Stack& s) {
  Counters c;
  c.pool = s.pool->StatsSnapshot();
  c.device = s.disk->Snapshot();
  if (IoDispatcher* io = s.pool->io_dispatcher()) c.io = io->stats();
  c.scan_pages = s.workload->scan_pages();
  return c;
}

// ------------------------------------------------------------------ host

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Keeps every CPU the process may run on busy with a SCHED_IDLE thread,
// which any runnable thread preempts at once, so a woken client or device
// sleeper never waits for the hypervisor to wake an idle virtual CPU. That
// wake-up grows with the host's load: over eight alternating 8-s tpca
// runs on a 4-vCPU KVM guest, throughput read 1,188 to 1,663 txn/s without
// spinners and 1,726 to 1,780 with them. The spinners stand in for the
// guest kernel's idle=poll, which a process cannot set.
class IdleSpinners {
 public:
  IdleSpinners() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        threads_.emplace_back([this, cpu] { Spin(cpu); });
      }
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  size_t size() const { return threads_.size(); }

 private:
  void Spin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_param param{};
    // A spinner that is not SCHED_IDLE would compete with the clients.
    if (sched_setaffinity(0, sizeof(one), &one) != 0 ||
        sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
      return;
    }
    while (!stop_.load(std::memory_order_relaxed)) CpuRelax();
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ------------------------------------------------------------- timed run

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double window_s = 30.0;
  std::string trace_dir;
  bool self_test = false;
  BenchProvenance provenance;
};

struct RunResult {
  std::vector<double> setup_s;
  double window_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::array<uint64_t, kSlices> slice_txns{};
  std::vector<Histogram> slice_latency = std::vector<Histogram>(kSlices);
  Counters start;
  Counters end;
  int scan_table = -1;
  std::vector<std::string> table_names;
  std::vector<std::string> failures;
  std::unique_ptr<Tracer> tracer;  // traced runs only

  uint64_t txns() const {
    return std::accumulate(slice_txns.begin(), slice_txns.end(), uint64_t{0});
  }
};

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

// Sets the phase to kStop, stops the workload and joins every client, also
// when the run unwinds early.
class ClientThreads {
 public:
  ClientThreads(std::atomic<int>* phase, Workload* workload)
      : phase_(phase), workload_(workload) {}
  ~ClientThreads() { StopAndJoin(); }
  ClientThreads(const ClientThreads&) = delete;
  ClientThreads& operator=(const ClientThreads&) = delete;

  template <typename Fn>
  void Start(Fn&& fn) {
    threads_.emplace_back(std::forward<Fn>(fn));
  }
  void StopAndJoin() {
    phase_->store(kStop, std::memory_order_release);
    workload_->Stop();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::atomic<int>* phase_;
  Workload* workload_;
  std::vector<std::thread> threads_;
};

RunResult RunTimed(const Options& o, const Shape& shape, double window_s,
                   bool traced) {
  RunResult r;
  Stack stack;
  int setups = traced ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    int64_t t0 = NowNs();
    Status built = BuildStack(o.workload, shape, o.seed, traced, &stack);
    r.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!built.ok()) {
      r.failures.push_back("set-up: " + built.ToString());
      return r;
    }
  }
  Workload& workload = *stack.workload;
  r.scan_table = workload.scan_table();
  r.table_names = stack.disk->table_names();
  if (traced) r.tracer = std::make_unique<Tracer>();
  Tracer* tracer = r.tracer.get();

  std::vector<ClientState> clients = MakeClients(shape, o.seed);
  std::atomic<int> phase{kWarmup};
  std::atomic<int64_t> window_start{0};
  const int64_t window_ns = static_cast<int64_t>(window_s * 1e9);
  const int64_t slice_ns = std::max<int64_t>(1, window_ns / kSlices);

  auto client_loop = [&](ClientState& c) {
    ThreadTrace* trace = tracer != nullptr
                             ? tracer->Register(static_cast<uint32_t>(c.role))
                             : nullptr;
    tls_trace = trace;
    UsePreciseSleeps();
    const bool scanner = workload.IsScanner(c.role);
    for (uint64_t seq = 0;; ++seq) {
      if (!workload.Gate(c)) break;
      int p = phase.load(std::memory_order_acquire);
      if (p == kStop) break;
      const bool measuring = p == kMeasure;
      if (trace != nullptr) {
        trace->BeginTxn(measuring,
                        seq % tracer->sample_every() == 0 &&
                            tracer->BudgetLeft(),
                        (static_cast<uint64_t>(c.role) << 40) | seq);
      }
      int64_t begin = NowNs();
      Status status;
      {
        Span root(scanner ? Op::kScanPass : Op::kTxn);
        status = workload.Step(c);
      }
      int64_t end = NowNs();
      if (trace != nullptr) tracer->AddKept(trace->EndTxn());
      // A request belongs to the window it started in.
      if (!measuring) continue;
      ++c.attempted;
      if (!status.ok()) {
        if (c.failed++ == 0) c.first_error = status.ToString();
        continue;
      }
      if (scanner) continue;
      int64_t slice =
          (begin - window_start.load(std::memory_order_relaxed)) / slice_ns;
      slice = std::clamp<int64_t>(slice, 0, kSlices - 1);
      ++c.slice_txns[slice];
      c.slice_latency[slice].Add(static_cast<uint64_t>(end - begin));
    }
    tls_trace = nullptr;
  };

  {
    ClientThreads threads(&phase, &workload);
    for (auto& c : clients) {
      threads.Start([&client_loop, &c] { client_loop(c); });
    }
    std::this_thread::sleep_for(kWarmupTime);
    if (tracer != nullptr) {
      // Keep full spans of 1 in N transactions, N sized from the warm-up
      // span rate so the window stays within the span budget.
      double expected = static_cast<double>(tracer->WarmSpans()) /
                        std::chrono::duration<double>(kWarmupTime).count() *
                        window_s;
      tracer->set_sample_every(static_cast<uint64_t>(
          std::ceil(1.25 * expected / Tracer::kSpanBudget)));
    }
    r.start = Snap(stack);
    int64_t t_start = NowNs();
    window_start.store(t_start, std::memory_order_relaxed);
    phase.store(kMeasure, std::memory_order_release);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            t_start + window_ns)));
    phase.store(kStop, std::memory_order_release);
    r.window_s = static_cast<double>(NowNs() - t_start) / 1e9;
    r.end = Snap(stack);
    threads.StopAndJoin();
  }

  std::string first_error;
  for (auto& c : clients) {
    r.attempted += c.attempted;
    r.failed += c.failed;
    if (first_error.empty()) first_error = c.first_error;
    for (int s = 0; s < kSlices; ++s) {
      r.slice_txns[s] += c.slice_txns[s];
      r.slice_latency[s].Merge(c.slice_latency[s]);
    }
  }
  if (r.failed > 0) {
    r.failures.push_back(std::to_string(r.failed) +
                         " requests failed; first: " + first_error);
  }
  workload.Check(clients, *stack.pool, *stack.durable, &r.failures);
  if (traced && !o.trace_dir.empty()) {
    std::string error;
    std::string path = o.trace_dir + "/" + o.workload + ".trace.json";
    if (tracer->WriteChromeJson(path, &error)) {
      std::printf("trace: %llu spans of %llu sampled requests -> %s\n",
                  static_cast<unsigned long long>(tracer->KeptSpans()),
                  static_cast<unsigned long long>(tracer->SampledTxns()),
                  path.c_str());
    } else {
      std::fprintf(stderr, "trace: %s\n", error.c_str());
    }
  }
  return r;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Device reads charged to transactions: every table but the scan table.
uint64_t TxnReads(const RunResult& r) {
  TimedDisk::Counters d = r.end.device - r.start.device;
  uint64_t reads = d.TotalReads();
  if (r.scan_table >= 0) reads -= d.reads[r.scan_table];
  return reads;
}

double TxnPerSecond(const RunResult& r) {
  return Ratio(static_cast<double>(r.txns()), r.window_s);
}

// The q-quantile of request latency in microseconds: the median over the
// window's kSlices equal slices, so a transient stall on the shared host
// moves one slice, not the result.
double SliceLatencyUs(const RunResult& r, double q) {
  std::vector<double> per_slice;
  for (int s = 0; s < kSlices; ++s) {
    per_slice.push_back(r.slice_latency[s].Quantile(q) / 1e3);
  }
  return Median(per_slice);
}

// End-to-end metrics reported by an untraced run, plus informational
// lines that are not part of the scoreboard.
void EndToEnd(const RunResult& r, std::vector<Metric>* scored,
              std::vector<Metric>* info) {
  std::vector<double> tput;
  const double slice_s = r.window_s / kSlices;
  uint64_t min_slice = UINT64_MAX;
  for (int s = 0; s < kSlices; ++s) {
    tput.push_back(Ratio(static_cast<double>(r.slice_txns[s]), slice_s));
    min_slice = std::min(min_slice, r.slice_txns[s]);
  }
  const double txns = static_cast<double>(r.txns());
  TimedDisk::Counters d = r.end.device - r.start.device;
  scored->push_back({"txn_per_s", Median(tput), "txn/s"});
  scored->push_back({"disk_reads_per_txn",
                     Ratio(static_cast<double>(TxnReads(r)), txns),
                     "reads/txn"});
  scored->push_back({"setup_s", Median(r.setup_s), "s"});
  scored->push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});

  // Latencies move with the host's CPU speed and load more than any bound
  // allows (see README.md); they are reported, and scored unbounded by
  // traced runs.
  info->push_back({"txn_p50_us", SliceLatencyUs(r, 0.50), "us"});
  info->push_back({"txn_p95_us", SliceLatencyUs(r, 0.95), "us"});
  info->push_back({"txn_p99_us", SliceLatencyUs(r, 0.99), "us"});
  info->push_back({"txns", txns, "count"});
  info->push_back({"latency_samples_min_slice",
                   static_cast<double>(min_slice), "count"});
  info->push_back({"disk_writes_per_txn",
                   Ratio(static_cast<double>(d.TotalWrites()), txns),
                   "writes/txn"});
  info->push_back(
      {"scan_pages_per_s",
       Ratio(static_cast<double>(r.end.scan_pages - r.start.scan_pages),
             r.window_s),
       "pages/s"});
  info->push_back({"error_rate",
                   Ratio(static_cast<double>(r.failed),
                         static_cast<double>(r.attempted)),
                   "frac"});
  BufferPoolStats p1 = r.end.pool, p0 = r.start.pool;
  info->push_back({"hit_ratio",
                   Ratio(static_cast<double>(p1.hits - p0.hits),
                         static_cast<double>(p1.hits - p0.hits + p1.misses -
                                             p0.misses)),
                   "frac"});
  for (size_t t = 0; t < r.table_names.size(); ++t) {
    info->push_back({"reads_per_txn." + r.table_names[t],
                     Ratio(static_cast<double>(d.reads[t]), txns),
                     "reads/txn"});
    info->push_back({"writes_per_txn." + r.table_names[t],
                     Ratio(static_cast<double>(d.writes[t]), txns),
                     "writes/txn"});
  }
  for (size_t i = 0; i < r.setup_s.size(); ++i) {
    info->push_back({"setup_s." + std::to_string(i), r.setup_s[i], "s"});
  }
}

// Per-layer metrics from a traced run `t`; `u` is the untraced run of the
// same process (overhead and the device counts per transaction).
void PerLayer(const RunResult& t, const RunResult& u,
              std::vector<Metric>* scored, std::vector<Metric>* info) {
  const Tracer& tr = *t.tracer;
  const double txns = std::max(1.0, static_cast<double>(t.txns()));
  auto sum = [&](std::initializer_list<Op> ops) {
    OpStats s;
    for (Op op : ops) s.Merge(tr.Merged(op));
    return s;
  };
  auto self_us = [&](const OpStats& s) {
    return static_cast<double>(s.self_ns) / 1e3 / txns;
  };
  auto per_txn = [&](double n) { return n / txns; };
  auto p50_us = [](const OpStats& s) { return s.latency.Quantile(0.5) / 1e3; };
  auto p99_us = [](const OpStats& s) { return s.latency.Quantile(0.99) / 1e3; };
  const BufferPoolStats& p1 = t.end.pool;
  const BufferPoolStats& p0 = t.start.pool;
  auto pool = [&](uint64_t BufferPoolStats::*field) {
    return static_cast<double>(p1.*field - p0.*field);
  };
  auto add = [&](const char* name, double value, const char* unit) {
    scored->push_back({name, value, unit});
  };

  OpStats client = sum({Op::kTxn, Op::kScanPass, Op::kScanVisit});
  OpStats btree = sum({Op::kBtreeGet, Op::kBtreeUpdate, Op::kBtreeInsert});
  OpStats heap = sum({Op::kHeapGet, Op::kHeapUpdate, Op::kHeapScan});
  OpStats hit = tr.Merged(Op::kFetchHit);
  OpStats miss = tr.Merged(Op::kFetchMiss);
  OpStats bufferpool = sum({Op::kFetchHit, Op::kFetchMiss, Op::kUnpin,
                            Op::kNewPage, Op::kPoolOther});
  OpStats core = sum({Op::kRecordAccess, Op::kRecordAccessBatch,
                      Op::kPrepareAdmit, Op::kAdmit, Op::kEvict, Op::kRestore,
                      Op::kSetEvictable, Op::kRemove});
  OpStats storage = sum({Op::kDiskRead, Op::kDiskWrite});
  const double fetches = static_cast<double>(hit.calls + miss.calls);
  const double hits = pool(&BufferPoolStats::hits);
  const double misses = pool(&BufferPoolStats::misses);
  TimedDisk::Counters d = t.end.device - t.start.device;

  add("btree.calls_per_txn", per_txn(btree.calls), "calls/txn");
  add("btree.self_us_per_txn", self_us(btree), "us/txn");
  add("btree.call_us_p50", p50_us(btree), "us");
  add("heap.calls_per_txn", per_txn(heap.calls), "calls/txn");
  add("heap.self_us_per_txn", self_us(heap), "us/txn");
  add("heap.call_us_p50", p50_us(heap), "us");
  add("bufferpool.fetches_per_txn", per_txn(fetches), "fetches/txn");
  add("bufferpool.hit_ratio", Ratio(hits, hits + misses), "frac");
  add("bufferpool.fetch_hit_us_p50", p50_us(hit), "us");
  add("bufferpool.fetch_hit_us_p99", p99_us(hit), "us");
  add("bufferpool.fetch_miss_us_p50", p50_us(miss), "us");
  add("bufferpool.fetch_miss_us_p99", p99_us(miss), "us");
  add("bufferpool.unpin_us_p50", p50_us(tr.Merged(Op::kUnpin)), "us");
  add("bufferpool.self_us_per_txn", self_us(bufferpool), "us/txn");
  add("bufferpool.latch_acquires_per_fetch",
      Ratio(pool(&BufferPoolStats::latch_acquires), hits + misses), "1/fetch");
  add("bufferpool.evictions_per_txn",
      per_txn(pool(&BufferPoolStats::evictions)), "1/txn");
  add("bufferpool.dirty_writebacks_per_txn",
      per_txn(pool(&BufferPoolStats::dirty_writebacks)), "1/txn");
  add("bufferpool.optimistic_hit_frac",
      Ratio(pool(&BufferPoolStats::optimistic_hits), hits), "frac");
  add("bufferpool.access_drops_per_txn",
      per_txn(pool(&BufferPoolStats::access_drops)), "1/txn");
  add("core.calls_per_fetch", Ratio(static_cast<double>(core.calls), fetches),
      "calls/fetch");
  add("core.self_us_per_txn", self_us(core), "us/txn");
  add("core.record_access_ns_p50",
      tr.Merged(Op::kRecordAccess).latency.Quantile(0.5), "ns");
  add("core.admit_ns_p50", tr.Merged(Op::kAdmit).latency.Quantile(0.5), "ns");
  add("core.evict_ns_p50", tr.Merged(Op::kEvict).latency.Quantile(0.5), "ns");
  add("core.drain_records_per_call",
      Ratio(static_cast<double>(tr.DrainedRecords()),
            static_cast<double>(tr.Merged(Op::kRecordAccessBatch).calls)),
      "records/call");
  add("io.demand_wait_us_per_txn",
      per_txn(t.end.io.lane(IoClass::kDemand).wait_micros -
              t.start.io.lane(IoClass::kDemand).wait_micros),
      "us/txn");
  add("io.coalesced_reads_per_txn",
      per_txn(pool(&BufferPoolStats::coalesced_reads)), "1/txn");
  add("io.prefetch_used_frac",
      Ratio(pool(&BufferPoolStats::prefetch_used),
            pool(&BufferPoolStats::prefetch_issued)),
      "frac");
  add("io.background_cleans_per_txn",
      per_txn(pool(&BufferPoolStats::background_cleans)), "1/txn");
  add("storage.reads_per_txn", per_txn(d.TotalReads()), "reads/txn");
  add("storage.writes_per_txn", per_txn(d.TotalWrites()), "writes/txn");
  add("storage.read_us_p50", p50_us(tr.Merged(Op::kDiskRead)), "us");
  add("storage.write_us_p50", p50_us(tr.Merged(Op::kDiskWrite)), "us");
  add("storage.self_us_per_txn", self_us(storage), "us/txn");
  add("storage.busy_frac", Ratio(d.busy_ns / 1e9, t.window_s), "frac");
  add("storage.scan_miss_frac",
      t.scan_table >= 0
          ? Ratio(d.reads[t.scan_table], t.end.scan_pages - t.start.scan_pages)
          : 0.0,
      "frac");
  add("client.self_us_per_txn", self_us(client), "us/txn");
  add("trace.overhead_frac", 1.0 - Ratio(TxnPerSecond(t), TxnPerSecond(u)),
      "frac");
  add("trace.sampled_txns", tr.SampledTxns(), "count");
  // End-to-end by nature but too unsteady on this host to carry a bound, or
  // 0 once a known defect is fixed, so scored without a bound here; taken
  // from the untraced run.
  const double u_txns = std::max(1.0, static_cast<double>(u.txns()));
  add("txn_p50_us", SliceLatencyUs(u, 0.50), "us");
  add("txn_p95_us", SliceLatencyUs(u, 0.95), "us");
  add("txn_p99_us", SliceLatencyUs(u, 0.99), "us");
  add("disk_writes_per_txn",
      (u.end.device - u.start.device).TotalWrites() / u_txns, "writes/txn");
  add("scan_pages_per_s",
      Ratio(u.end.scan_pages - u.start.scan_pages, u.window_s), "pages/s");

  info->push_back({"disk_reads_per_txn", TxnReads(u) / u_txns, "reads/txn"});
  info->push_back({"error_rate",
                   Ratio(t.failed + u.failed, t.attempted + u.attempted),
                   "frac"});
  info->push_back({"traced_txn_per_s", TxnPerSecond(t), "txn/s"});
  info->push_back({"untraced_txn_per_s", TxnPerSecond(u), "txn/s"});
  info->push_back(
      {"sample_every", static_cast<double>(tr.sample_every()), "txns"});
  for (size_t i = 0; i < kOpCount; ++i) {
    OpStats s = tr.Merged(static_cast<Op>(i));
    if (s.calls == 0) continue;
    std::string name = std::string("op.") + OpName(static_cast<Op>(i));
    info->push_back({name + ".calls_per_txn", per_txn(s.calls), "calls/txn"});
    info->push_back({name + ".self_us_per_txn", self_us(s), "us/txn"});
  }
}

void PrintMetrics(const char* tag, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-6s %-48s %18.6f %s\n", tag, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// The result line: the last line of standard output.
void PrintResultJson(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ------------------------------------------------------------- self-test

struct Counts {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  bool operator==(const Counts&) const = default;
  std::string ToString() const {
    return "reads=" + std::to_string(reads) + " writes=" +
           std::to_string(writes) + " hits=" + std::to_string(hits) +
           " misses=" + std::to_string(misses) +
           " evictions=" + std::to_string(evictions);
  }
};

constexpr uint64_t kSelfTestRounds = 400;
// A scanner takes one full pass every this many rounds.
constexpr uint64_t kSelfTestScanEvery = 25;

// Runs a fixed number of requests round-robin over the workload's clients
// on the calling thread, on the tiny shape: deterministic for a seed.
Counts RunFixed(std::string_view name, uint64_t seed, bool traced,
                std::vector<std::string>* failures) {
  Shape shape = *ShapeFor(name, /*tiny=*/true);
  Stack stack;
  Status built = BuildStack(name, shape, seed, traced, &stack);
  if (!built.ok()) {
    failures->push_back("set-up: " + built.ToString());
    return {};
  }
  Tracer tracer;
  ThreadTrace* trace = traced ? tracer.Register(0) : nullptr;
  tls_trace = trace;
  std::vector<ClientState> clients = MakeClients(shape, seed);
  uint64_t failed = 0;
  for (uint64_t round = 0; round < kSelfTestRounds; ++round) {
    for (auto& c : clients) {
      const bool scanner = stack.workload->IsScanner(c.role);
      if (scanner && round % kSelfTestScanEvery != 0) continue;
      if (trace != nullptr) trace->BeginTxn(true, false, round);
      Status status;
      {
        Span root(scanner ? Op::kScanPass : Op::kTxn);
        status = stack.workload->Step(c);
      }
      if (trace != nullptr) trace->EndTxn();
      if (!status.ok() && failed++ == 0) {
        failures->push_back("request failed: " + status.ToString());
      }
    }
  }
  tls_trace = nullptr;
  if (traced && tracer.Merged(Op::kFetchHit).calls == 0) {
    failures->push_back("traced run recorded no fetch spans");
  }
  TimedDisk::Counters device = stack.disk->Snapshot();
  BufferPoolStats pool = stack.pool->StatsSnapshot();
  Counts counts{device.TotalReads(), device.TotalWrites(), pool.hits,
                pool.misses, pool.evictions};
  stack.workload->Check(clients, *stack.pool, *stack.durable, failures);
  return counts;
}

int SelfTest() {
  bool all_pass = true;
  for (const char* name : {"tpca", "hot_read", "scan_mix"}) {
    std::vector<std::string> failures;
    Counts first = RunFixed(name, 1, false, &failures);
    Counts again = RunFixed(name, 1, false, &failures);
    Counts other = RunFixed(name, 2, false, &failures);
    Counts traced = RunFixed(name, 1, true, &failures);
    auto report = [&](const char* what, bool pass) {
      std::printf("check %-9s %-34s %s\n", name, what, pass ? "yes" : "NO");
      all_pass = all_pass && pass;
    };
    report("outputs verified", failures.empty());
    for (const auto& f : failures) std::printf("  %s\n", f.c_str());
    report("same seed gives same counts", first == again);
    report("other seed gives other counts", first != other);
    report("traced counts equal untraced", first == traced);
    std::printf("  seed 1: %s\n  seed 2: %s\n", first.ToString().c_str(),
                other.ToString().c_str());
  }
  std::printf("self-test: %s\n", all_pass ? "PASS" : "FAIL");
  return all_pass ? 0 : 1;
}

// ------------------------------------------------------------------ main

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool ParseSeconds(const char* s, double lo, double* out) {
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < lo || v > 3600) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    if (ParseProvenanceFlag(argc, argv, &i, &o->provenance)) continue;
    std::string_view flag = argv[i];
    if (flag == "--self-test") {
      o->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      if (!ParseU64(v, &o->seed)) return false;
    } else if (flag == "--seconds") {
      if (!ParseSeconds(v, 0.1, &o->window_s)) return false;
    } else if (flag == "--trace") {
      o->trace_dir = v;
    } else {
      return false;
    }
  }
  return o->self_test || ShapeFor(o->workload, false).has_value();
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: %s --workload tpca|hot_read|scan_mix [--seed N] "
                 "[--seconds S] [--trace DIR] "
                 "[--git-sha X] [--build-type X]\n"
                 "       %s --self-test\n",
                 argv[0], argv[0]);
    return 2;
  }
  UsePreciseSleeps();  // set-up and checks issue device operations too
  if (o.self_test) return SelfTest();

  Shape shape = *ShapeFor(o.workload, false);
  unsigned cores = std::thread::hardware_concurrency();
  if (cores != 0 && shape.clients > cores) {
    std::fprintf(stderr, "%s runs %zu client threads; this host has %u cores\n",
                 o.workload.c_str(), shape.clients, cores);
    return 2;
  }
  const bool traced = !o.trace_dir.empty();
  if (traced) {
    std::error_code ec;
    std::filesystem::create_directories(o.trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "%s: %s\n", o.trace_dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }
  IdleSpinners spinners;
  o.provenance.threads = static_cast<unsigned>(shape.clients);
  std::printf("run {");
  WriteProvenanceJson(stdout, o.provenance);
  std::printf(", \"workload\": \"%s\", \"seed\": %llu, \"window_s\": %g, "
              "\"warmup_s\": %g, \"setups\": %d, \"clients\": %zu, "
              "\"frames\": %zu, \"policy\": \"LRU-2\", \"device_us\": %lld, "
              "\"idle_spinners\": %zu, \"traced\": %s}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.window_s, std::chrono::duration<double>(kWarmupTime).count(),
              kSetups, shape.clients, shape.frames,
              static_cast<long long>(TimedDisk::kServiceTime.count()),
              spinners.size(), traced ? "true" : "false");
  std::fflush(stdout);

  std::vector<Metric> scored;
  std::vector<Metric> info;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto absorb = [&](const RunResult& r) {
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    attempted += r.attempted;
    failed += r.failed;
  };
  if (!traced) {
    RunResult r = RunTimed(o, shape, o.window_s, /*traced=*/false);
    absorb(r);
    EndToEnd(r, &scored, &info);
  } else {
    // The window is split between the untraced and the traced run, so a
    // traced run measures as long as an untraced one.
    RunResult u = RunTimed(o, shape, o.window_s / 2, /*traced=*/false);
    absorb(u);
    RunResult t = RunTimed(o, shape, o.window_s / 2, /*traced=*/true);
    absorb(t);
    if (t.tracer != nullptr) PerLayer(t, u, &scored, &info);
  }
  PrintMetrics("info", info);
  PrintMetrics("metric", scored);
  for (const auto& f : failures) std::printf("FAILED: %s\n", f.c_str());
  PrintResultJson(failures.empty(), std::max<uint64_t>(attempted, 1), failed,
                  scored);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace lruk::e2e

int main(int argc, char** argv) { return lruk::e2e::Main(argc, argv); }
