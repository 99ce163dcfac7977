// Ablation A5 — common-subexpression reuse across candidate networks
// (Section 4's optimizer decision (b)): full-result hash-join execution,
// which materializes each keyword-filtered relation scan once per query and
// memoizes join prefixes that several networks share.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/full_executor.h"

namespace {

void BM_FullResults(benchmark::State& state) {
  auto& fixture = xk::bench::DblpBench::Get();
  const auto& prepared = fixture.Prepared("MinNClustNIndx", /*z=*/8);

  // Unindexed relations: the full-result executor runs hash joins.
  xk::engine::QueryOptions options;
  options.max_network_size = static_cast<int>(state.range(0));

  uint64_t reuse_hits = 0;
  uint64_t probes = 0;
  uint64_t subplan_hits = 0;
  uint64_t saved_rows = 0;
  for (auto _ : state) {
    for (const xk::engine::PreparedQuery& q : prepared) {
      xk::engine::ExecutionStats stats;
      xk::engine::FullExecutor executor(options);
      benchmark::DoNotOptimize(executor.Run(q, &stats));
      reuse_hits += stats.reuse_hits;
      probes += stats.probes.probes;
      subplan_hits += stats.subplan_hits;
      saved_rows += stats.dedup_saved_rows;
    }
  }
  state.counters["reuse_hits"] = benchmark::Counter(
      static_cast<double>(reuse_hits) / static_cast<double>(state.iterations()));
  state.counters["scans"] = benchmark::Counter(
      static_cast<double>(probes) / static_cast<double>(state.iterations()));
  // Cross-CN join-prefix memoization (on top of scan sharing).
  state.counters["subplan_hits"] = benchmark::Counter(
      static_cast<double>(subplan_hits) / static_cast<double>(state.iterations()));
  state.counters["dedup_saved_rows"] = benchmark::Counter(
      static_cast<double>(saved_rows) / static_cast<double>(state.iterations()));
}

}  // namespace

BENCHMARK(BM_FullResults)
    ->ArgName("maxCTSSN")
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return xk::bench::RunBenchMain("reuse", argc, argv);
}
