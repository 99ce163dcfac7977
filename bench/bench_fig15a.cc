// Figure 15(a): average time to output the top-K results of each candidate
// network, per decomposition. The paper's series: XKeyword fastest, then
// MinClust; Complete slower than MinClust despite fewer joins (huge MVD
// relations); non-clustered decompositions poor (MinNClustNIndx is an order
// of magnitude worse still and omitted there, included here for reference).
//
// Workload: DBLP, 2-keyword author queries, Z = 8 (paper Section 7).
//
// Two engine-side series beyond the paper's figure:
//   Fig15aVec/*    — row-at-a-time vs vectorized execution;
//   Fig15aPrune/*  — semi-join Bloom pruning on/off (rows_scanned drops,
//                    bloom_skips counts rejected probes).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/topk_executor.h"

namespace {

struct TopKSetup {
  std::string decomposition;
  bool semijoin_pruning = true;
  bool vectorized = true;
};

void BM_TopK(benchmark::State& state, const TopKSetup& setup, size_t k,
             const std::string& label) {
  auto& fixture = xk::bench::DblpBench::Get();
  const auto& prepared = fixture.Prepared(setup.decomposition, /*z=*/8);

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
  options.enable_semijoin_pruning = setup.semijoin_pruning;
  options.vectorized = setup.vectorized;

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
  state.SetLabel(label);
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
          BM_TopK(state, TopKSetup{decomposition},
                  static_cast<size_t>(state.range(0)), decomposition);
        });
    b->ArgName("K");
    for (int k : {1, 5, 10, 20, 50, 100}) b->Arg(k);
    b->Unit(benchmark::kMillisecond);
    b->Iterations(3);
  }

  // Vectorized batch execution ablation at K = 100: V:0 is the row-at-a-time
  // engine, V:1 the RowBlock path (results byte-identical).
  for (const char* decomposition : {"MinClust", "MinNClustIndx"}) {
    auto* b = benchmark::RegisterBenchmark(
        (std::string("Fig15aVec/") + decomposition).c_str(),
        [decomposition](benchmark::State& state) {
          TopKSetup setup{decomposition};
          setup.vectorized = state.range(0) != 0;
          BM_TopK(state, setup, /*k=*/100,
                  setup.vectorized ? "block" : "row");
        });
    b->ArgName("V");
    b->Arg(0);
    b->Arg(1);
    b->Unit(benchmark::kMillisecond);
    b->Iterations(3);
  }

  // Semi-join Bloom pruning ablation at the paper's K = 100 point.
  for (bool prune : {false, true}) {
    auto* b = benchmark::RegisterBenchmark(
        prune ? "Fig15aPrune/on" : "Fig15aPrune/off",
        [prune](benchmark::State& state) {
          TopKSetup setup{"MinClust"};
          setup.semijoin_pruning = prune;
          BM_TopK(state, setup, /*k=*/100, prune ? "pruned" : "unpruned");
        });
    b->Unit(benchmark::kMillisecond);
    b->Iterations(3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return xk::bench::RunBenchMain("fig15a", argc, argv);
}
