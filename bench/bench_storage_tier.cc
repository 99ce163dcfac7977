// Ablation A13 — the disk-resident storage tier: top-k query latency on the
// in-memory backend vs the disk backend under a warm pool (everything
// resident after the first sweep) and a cold pool (budget of a few frames, so
// every query churns through misses and evictions), the same axis for raw
// table sweeps through TableReadCursor and for paged bound lookups (clustered
// ranges and composite runs), the page checksum every pool miss verifies,
// and the compressed posting-list footprint against the 24-byte in-memory
// struct. Pool counters (hits, misses, read bytes, evictions) ride along as
// series counters.
//
// Caveat recorded next to the numbers: the page file lives on the build
// machine's filesystem, so "disk" reads are usually served from the OS page
// cache — the series measures the tier's CPU overhead (pin/unpin, checksum'd
// page reads, posting decode, row copies), not rotational latency.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "keyword/master_index.h"
#include "storage/page.h"
#include "storage/storage_tier.h"
#include "storage/table.h"

namespace {

using xk::engine::QueryMode;
using xk::engine::QueryOptions;
using xk::engine::QueryRequest;
using xk::engine::XKeyword;
using xk::storage::kPageSize;
using xk::storage::StorageBackend;
using xk::storage::StorageOptions;

/// The DBLP database with one XKeyword decomposition loaded once per backend
/// variant: memory, disk with a warm (ample) pool, disk with a cold (few
/// frames) pool.
class TierBench {
 public:
  static TierBench& Get() {
    static TierBench* instance = new TierBench();
    return *instance;
  }

  const xk::datagen::DblpDatabase& db() const { return *db_; }
  XKeyword& memory() { return *memory_; }
  XKeyword& disk_warm() { return *disk_warm_; }
  XKeyword& disk_cold() { return *disk_cold_; }
  const std::vector<std::vector<std::string>>& queries() const {
    return queries_;
  }

 private:
  TierBench() {
    xk::datagen::DblpConfig config;
    config.num_conferences = 10;
    config.years_per_conference = 6;
    config.avg_papers_per_year = 20;
    config.avg_citations_per_paper = 20.0;
    config.author_vocab = 200;
    config.title_vocab = 200;
    config.seed = 2003;
    if (const char* scale = std::getenv("XK_BENCH_SCALE");
        scale != nullptr && std::string(scale) == "tiny") {
      config.num_conferences = 3;
      config.years_per_conference = 3;
      config.avg_papers_per_year = 6;
      config.avg_citations_per_paper = 4.0;
      config.author_vocab = 60;
      config.title_vocab = 60;
    }
    db_ = xk::datagen::DblpDatabase::Generate(config).MoveValueUnsafe();

    memory_ = Load(StorageOptions{});

    StorageOptions warm;
    warm.backend = StorageBackend::kDisk;  // default 64 MiB pool
    disk_warm_ = Load(warm);

    StorageOptions cold;
    cold.backend = StorageBackend::kDisk;
    cold.buffer_pool_bytes = 4 * kPageSize;
    disk_cold_ = Load(cold);

    queries_ = {{"ullman", "widom"}, {"gray", "codd"}, {"garcia", "suciu"}};
  }

  std::unique_ptr<XKeyword> Load(const StorageOptions& storage) {
    auto xk = XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss(),
                             storage)
                  .MoveValueUnsafe();
    XK_CHECK(xk->AddDecomposition(
                   xk::decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/6)
                       .MoveValueUnsafe())
                 .ok());
    return xk;
  }

  std::unique_ptr<xk::datagen::DblpDatabase> db_;
  std::unique_ptr<XKeyword> memory_;
  std::unique_ptr<XKeyword> disk_warm_;
  std::unique_ptr<XKeyword> disk_cold_;
  std::vector<std::vector<std::string>> queries_;
};

/// Top-k query latency per backend variant. Disk variants report the pool
/// traffic the queries caused (per query) and the pool's eviction total.
void BM_TopKQuery(benchmark::State& state, XKeyword* (*pick)(TierBench&),
                  const char* label) {
  TierBench& bench = TierBench::Get();
  XKeyword& xk = *pick(bench);
  uint64_t results = 0, page_hits = 0, page_misses = 0, page_read_bytes = 0;
  uint64_t queries = 0;
  for (auto _ : state) {
    for (const auto& keywords : bench.queries()) {
      QueryRequest request;
      request.keywords = keywords;
      request.decomposition = "XKeyword";
      request.mode = QueryMode::kTopK;
      request.options.max_size_z = 4;
      auto response = xk.Run(request);
      XK_CHECK(response.ok());
      results += response.value().mttons.size();
      page_hits += response.value().stats.page_hits;
      page_misses += response.value().stats.page_misses;
      page_read_bytes += response.value().stats.page_read_bytes;
      ++queries;
    }
  }
  state.SetLabel(label);
  const double q = static_cast<double>(queries);
  state.counters["results/query"] =
      benchmark::Counter(static_cast<double>(results) / q);
  state.counters["page_hits/query"] =
      benchmark::Counter(static_cast<double>(page_hits) / q);
  state.counters["page_misses/query"] =
      benchmark::Counter(static_cast<double>(page_misses) / q);
  state.counters["page_read_bytes/query"] =
      benchmark::Counter(static_cast<double>(page_read_bytes) / q);
  const xk::storage::StorageTier* tier = xk.data().storage_tier.get();
  if (tier != nullptr) {
    const xk::storage::BufferPoolStats stats = tier->PoolStats();
    state.counters["pool_evictions"] =
        benchmark::Counter(static_cast<double>(stats.evictions));
    state.counters["pool_resident_bytes"] =
        benchmark::Counter(static_cast<double>(stats.resident_bytes));
    state.counters["page_file_bytes"] =
        benchmark::Counter(static_cast<double>(tier->FileBytes()));
  }
}

XKeyword* PickMemory(TierBench& b) { return &b.memory(); }
XKeyword* PickWarm(TierBench& b) { return &b.disk_warm(); }
XKeyword* PickCold(TierBench& b) { return &b.disk_cold(); }

/// Raw sequential sweep through TableReadCursor: the substrate-level cost of
/// paged reads, memory vs warm pool vs a pool smaller than the table (every
/// page faults once per sweep).
void BM_TableSweep(benchmark::State& state, bool paged, size_t pool_pages) {
  constexpr int kRows = 100000;
  xk::storage::Table table("sweep", {"a", "b", "c"});
  xk::Random rng(13);
  for (int r = 0; r < kRows; ++r) {
    XK_CHECK(table
                 .Append(xk::storage::Tuple{rng.Uniform(0, 1000),
                                            rng.Uniform(0, 1000), r})
                 .ok());
  }
  table.Freeze();
  std::unique_ptr<xk::storage::StorageTier> tier;
  if (paged) {
    StorageOptions options;
    options.backend = StorageBackend::kDisk;
    options.buffer_pool_bytes = pool_pages * kPageSize;
    tier = xk::storage::StorageTier::Create(options).MoveValueUnsafe();
    XK_CHECK(table.SpillToDisk(tier.get()).ok());
  }
  int64_t sum = 0;
  for (auto _ : state) {
    xk::storage::TableReadCursor cursor(table);
    for (int r = 0; r < kRows; ++r) {
      sum += cursor.At(static_cast<xk::storage::RowId>(r), 0);
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * kRows);
  if (tier != nullptr) {
    const xk::storage::BufferPoolStats stats = tier->PoolStats();
    state.counters["pool_misses"] =
        benchmark::Counter(static_cast<double>(stats.misses));
    state.counters["pool_evictions"] =
        benchmark::Counter(static_cast<double>(stats.evictions));
  }
}

/// Paged bound lookups on a connection-relation-shaped table (clustered on
/// (a, b), composite index on (b, a)): one-column clustered ranges or
/// composite runs of random existing values, through a pool of
/// `state.range(0)` frames — 512 holds every page (warm), 2 makes most
/// lookups miss (cold). Pins and misses per lookup ride along as counters.
void BM_PagedLookup(benchmark::State& state, bool composite) {
  constexpr int kRows = 100000;
  xk::storage::Table table("lookup", {"a", "b", "c"});
  xk::Random rng(17);
  for (int r = 0; r < kRows; ++r) {
    XK_CHECK(table
                 .Append(xk::storage::Tuple{rng.Uniform(0, 5000),
                                            rng.Uniform(0, 5000), r})
                 .ok());
  }
  XK_CHECK(table.Cluster({0, 1}).ok());
  XK_CHECK(table.BuildCompositeIndex({1, 0}).ok());
  table.Freeze();
  std::vector<xk::storage::ObjectId> keys(4096);
  for (xk::storage::ObjectId& k : keys) {
    k = table.At(static_cast<xk::storage::RowId>(rng.Uniform(0, kRows - 1)),
                 composite ? 1 : 0);
  }
  StorageOptions options;
  options.backend = StorageBackend::kDisk;
  options.buffer_pool_bytes = static_cast<size_t>(state.range(0)) * kPageSize;
  auto tier = xk::storage::StorageTier::Create(options).MoveValueUnsafe();
  XK_CHECK(table.SpillToDisk(tier.get()).ok());
  const xk::storage::CompositeIndex* index = table.GetCompositeIndex({1});
  std::vector<xk::storage::RowId> scratch;
  const xk::storage::BufferPoolStats before = tier->PoolStats();
  size_t lookups = 0, rows = 0;
  for (auto _ : state) {
    const xk::storage::TupleView key(&keys[lookups % keys.size()], 1);
    if (composite) {
      rows += index->LookupPrefix(key, &scratch).size();
    } else {
      const auto range = table.ClusteredRange(key);
      rows += range.second - range.first;
    }
    ++lookups;
  }
  const xk::storage::BufferPoolStats after = tier->PoolStats();
  const double n = static_cast<double>(std::max<size_t>(lookups, 1));
  state.counters["pins/lookup"] = benchmark::Counter(
      static_cast<double>(after.hits + after.misses - before.hits -
                          before.misses) / n);
  state.counters["misses/lookup"] =
      benchmark::Counter(static_cast<double>(after.misses - before.misses) / n);
  state.counters["rows/lookup"] =
      benchmark::Counter(static_cast<double>(rows) / n);
}

/// The page checksum every buffer-pool miss verifies, over one full page
/// (16-byte header prefix + kPagePayload live bytes); bytes/s is per page.
void BM_PageChecksum(benchmark::State& state) {
  xk::storage::PageHeader h{};
  h.magic = xk::storage::kPageMagic;
  h.payload_len = static_cast<uint32_t>(xk::storage::kPagePayload);
  std::vector<uint8_t> payload(xk::storage::kPagePayload);
  xk::Random rng(5);
  for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.Uniform(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(&h);
    benchmark::DoNotOptimize(
        xk::storage::ComputePageChecksum(h, payload.data()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}

/// The compressed posting footprint against the in-memory struct — the
/// headline space claim of the tier (target: <= 0.5x). Not a timing series;
/// one iteration records the sizes as counters.
void BM_PostingFootprint(benchmark::State& state) {
  TierBench& bench = TierBench::Get();
  const xk::keyword::MasterIndex& disk = bench.disk_warm().master_index();
  const xk::keyword::MasterIndex& mem = bench.memory().master_index();
  XK_CHECK(disk.IsPaged());
  const double compressed = static_cast<double>(disk.CompressedBytes());
  const double in_memory = static_cast<double>(
      mem.NumPostings() * sizeof(xk::keyword::Posting));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compressed);
  }
  state.counters["compressed_bytes"] = benchmark::Counter(compressed);
  state.counters["in_memory_bytes"] = benchmark::Counter(in_memory);
  state.counters["ratio"] =
      benchmark::Counter(in_memory > 0 ? compressed / in_memory : 0);
  state.counters["num_postings"] =
      benchmark::Counter(static_cast<double>(mem.NumPostings()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_TopKQuery, backend_memory, PickMemory, "memory")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TopKQuery, backend_disk_warm, PickWarm, "disk/warm-pool")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TopKQuery, backend_disk_cold, PickCold, "disk/cold-pool")
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_TableSweep, memory, false, 0)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_TableSweep, disk_warm, true, 512)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_TableSweep, disk_cold, true, 4)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_CAPTURE(BM_PagedLookup, clustered, false)
    ->Arg(512)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PagedLookup, composite, true)
    ->Arg(512)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_PageChecksum);

BENCHMARK(BM_PostingFootprint);

int main(int argc, char** argv) {
  return xk::bench::RunBenchMain("storage_tier", argc, argv);
}
