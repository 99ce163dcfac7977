// Figure 15(b): average time to output ALL results of each candidate
// network, versus the maximum CTSSN size, per decomposition. The paper's
// finding: MinNClustNIndx — full scans + hash joins on the small minimal
// relations — is fastest for complete outputs, while the indexed
// decompositions (whose DBMS plans go through index nested loops / bigger
// redundant relations) fall behind. The indexed ones run the Section-6
// suffix cache here too; `cache_hits` counts its replays.
//
// Workload: DBLP, 2-keyword author queries, Z = 8, size cap swept 2..6.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/full_executor.h"

namespace {

void BM_CompleteEnumeration(benchmark::State& state, const std::string& decomposition) {
  auto& fixture = xk::bench::DblpBench::Get();
  const int max_size = static_cast<int>(state.range(0));
  const auto& prepared = fixture.Prepared(decomposition, /*z=*/8);

  xk::engine::QueryOptions options;
  options.max_network_size = max_size;

  uint64_t results = 0;
  uint64_t rows_scanned = 0;
  uint64_t bloom_skips = 0;
  uint64_t cache_hits = 0;
  for (auto _ : state) {
    for (const xk::engine::PreparedQuery& q : prepared) {
      xk::engine::ExecutionStats stats;
      xk::engine::FullExecutor executor(options);
      auto r = executor.Run(q, &stats);
      benchmark::DoNotOptimize(r);
      results += stats.results;
      rows_scanned += stats.probes.rows_scanned;
      bloom_skips += stats.probes.bloom_skips;
      cache_hits += stats.cache_hits;
    }
  }
  const double per_query =
      static_cast<double>(state.iterations() * prepared.size());
  state.counters["results/query"] =
      benchmark::Counter(static_cast<double>(results) / per_query);
  state.counters["rows_scanned"] =
      benchmark::Counter(static_cast<double>(rows_scanned) / per_query);
  state.counters["bloom_skips"] =
      benchmark::Counter(static_cast<double>(bloom_skips) / per_query);
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(cache_hits) / per_query);
  state.SetLabel(decomposition);
}

void RegisterAll() {
  for (const char* decomposition :
       {"XKeyword", "Complete", "MinClust", "MinNClustIndx", "MinNClustNIndx"}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("Fig15b/") + decomposition).c_str(),
        [decomposition](benchmark::State& state) {
          BM_CompleteEnumeration(state, decomposition);
        });
    b->ArgName("maxCTSSN");
    // Size 6 is omitted: complete enumeration there yields ~4M results per
    // query on our (denser-than-DBLP) citation graph — minutes per series
    // point without changing the ordering visible at size 5.
    for (int m : {2, 3, 4, 5}) b->Arg(m);
    b->Unit(benchmark::kMillisecond);
    b->Iterations(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return xk::bench::RunBenchMain("fig15b", argc, argv);
}
