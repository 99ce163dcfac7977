// Figure 15(a): average time to output the top-K results of each candidate
// network, per decomposition. The paper's series: XKeyword fastest, then
// MinClust; Complete slower than MinClust despite fewer joins (huge MVD
// relations); non-clustered decompositions poor (MinNClustNIndx is an order
// of magnitude worse still and omitted there, included here for reference).
//
// Workload: DBLP, 2-keyword author queries, Z = 8 (paper Section 7).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/topk_executor.h"

namespace {

void BM_TopK(benchmark::State& state, const std::string& decomposition,
             size_t k) {
  auto& fixture = xk::bench::DblpBench::Get();
  const auto& prepared = fixture.Prepared(decomposition, /*z=*/8);

  xk::engine::QueryOptions options;
  options.max_size_z = 8;
  // The paper's setting: CTSSN sizes up to M = f(Z) = 6. (Our reduction can
  // emit a few size-7 shapes from Z = 8 networks; they explode fruitlessly.)
  options.max_network_size = 6;
  options.per_network_k = k;
  // Single-threaded across plans: the per-CN thread pool improves
  // first-result latency on slow back ends; at in-memory microsecond scale,
  // pool spawn would dominate the measurement.
  options.num_threads = 1;

  uint64_t results = 0;
  uint64_t probes = 0;
  uint64_t rows_scanned = 0;
  uint64_t bloom_skips = 0;
  for (auto _ : state) {
    for (const xk::engine::PreparedQuery& q : prepared) {
      xk::engine::ExecutionStats stats;
      xk::engine::TopKExecutor executor;
      auto r = executor.Run(q, options, &stats);
      benchmark::DoNotOptimize(r);
      results += stats.results;
      probes += stats.probes.probes;
      rows_scanned += stats.probes.rows_scanned;
      bloom_skips += stats.probes.bloom_skips;
    }
  }
  const double per_query =
      static_cast<double>(state.iterations() * prepared.size());
  state.counters["results/query"] =
      benchmark::Counter(static_cast<double>(results) / per_query);
  state.counters["probes/query"] =
      benchmark::Counter(static_cast<double>(probes) / per_query);
  state.counters["rows_scanned"] =
      benchmark::Counter(static_cast<double>(rows_scanned) / per_query);
  state.counters["bloom_skips"] =
      benchmark::Counter(static_cast<double>(bloom_skips) / per_query);
  state.SetLabel(decomposition);
}

void RegisterAll() {
  // MinNClustNIndx is omitted exactly as in the paper ("the results for
  // MinNClustNIndx are not shown, because they are worse by an order of
  // magnitude"); bench_fig15b includes it where it wins.
  for (const char* decomposition :
       {"XKeyword", "Complete", "MinClust", "MinNClustIndx"}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("Fig15a/") + decomposition).c_str(),
        [decomposition](benchmark::State& state) {
          BM_TopK(state, decomposition, static_cast<size_t>(state.range(0)));
        });
    b->ArgName("K");
    for (int k : {1, 5, 10, 20, 50, 100}) b->Arg(k);
    b->Unit(benchmark::kMillisecond);
    b->Iterations(3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return xk::bench::RunBenchMain("fig15a", argc, argv);
}
