// Anytime top-k bench: how much of the candidate-network space the engine
// covers — and how many results it returns — as the per-query budget shrinks.
// Two sweeps over the standard DBLP author workload (XKeyword decomposition,
// Z = 6, per-network k = 10):
//
//   AnytimeCostBudget/B:*  — deterministic cost-model budgets, from starved
//                            (B = 1: only the guaranteed first plan) through
//                            effectively unbounded (B = 1e9). The admission
//                            schedule is cost-ordered by CN size class, so
//                            coverage must grow monotonically with B; a
//                            summary table after the runs checks exactly that
//                            and records the verdict in the JSON sidecar.
//   AnytimeDeadline/us:*   — wall-clock deadlines. A deadline only
//                            truncates: the size-ordered plan schedule stops
//                            where the token trips, with the plan it landed
//                            in interrupted and later ones skipped.
//                            Nondeterministic by nature, so this series
//                            reports observed coverage/degradation rather
//                            than asserting a shape.
//
// Per series point (and in BENCH_anytime.json):
//   results/query       — mttons returned per query
//   cns_executed/query  — candidate networks the engine actually ran
//   cns_skipped/query   — CNs skipped whole: unaffordable under the cost
//                         budget, or never reached before the deadline
//   exhausted_class     — mean largest CN size class fully covered (-1 none)
//   degraded_fraction   — fraction of queries finishing kDegraded

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using xk::bench::BenchJsonWriter;
using xk::bench::DblpBench;
using xk::bench::JsonTeeReporter;
using xk::engine::Completeness;
using xk::engine::QueryMode;
using xk::engine::QueryRequest;
using xk::engine::QueryResponse;

QueryRequest MakeRequest(const std::vector<std::string>& keywords) {
  QueryRequest request;
  request.keywords = keywords;
  request.decomposition = "XKeyword";
  request.mode = QueryMode::kTopK;
  request.options.max_size_z = 6;
  request.options.per_network_k = 10;
  return request;
}

struct Point {
  double cns_executed = 0;
  double cns_skipped = 0;
  double exhausted_class = 0;
  double results = 0;
  double degraded_fraction = 0;
};
std::map<double, Point> g_budget_curve;  // cost budget -> mean coverage

void Record(benchmark::State& state, const std::vector<QueryResponse>& runs) {
  double executed = 0, skipped = 0, exhausted = 0, results = 0, degraded = 0;
  for (const QueryResponse& r : runs) {
    executed += static_cast<double>(r.coverage.cns_executed);
    skipped += static_cast<double>(r.coverage.cns_skipped);
    exhausted += static_cast<double>(r.coverage.exhausted_class);
    results += static_cast<double>(r.mttons.size());
    if (r.completeness == Completeness::kDegraded) degraded += 1.0;
  }
  const double n = static_cast<double>(runs.size());
  state.counters["results/query"] = benchmark::Counter(results / n);
  state.counters["cns_executed/query"] = benchmark::Counter(executed / n);
  state.counters["cns_skipped/query"] = benchmark::Counter(skipped / n);
  state.counters["exhausted_class"] = benchmark::Counter(exhausted / n);
  state.counters["degraded_fraction"] = benchmark::Counter(degraded / n);
}

void BM_AnytimeCostBudget(benchmark::State& state, double budget) {
  auto& fixture = DblpBench::Get();
  std::vector<QueryResponse> runs;
  for (auto _ : state) {
    runs.clear();
    for (const auto& q : fixture.queries()) {
      QueryRequest request = MakeRequest(q);
      request.options.anytime_cost_budget = budget;
      auto response = fixture.xk().Run(request);
      XK_CHECK(response.ok());
      benchmark::DoNotOptimize(response.value().mttons.size());
      runs.push_back(std::move(response).value());
    }
  }
  Record(state, runs);

  Point point;
  const double n = static_cast<double>(runs.size());
  for (const QueryResponse& r : runs) {
    point.cns_executed += static_cast<double>(r.coverage.cns_executed) / n;
    point.cns_skipped += static_cast<double>(r.coverage.cns_skipped) / n;
    point.exhausted_class += static_cast<double>(r.coverage.exhausted_class) / n;
    point.results += static_cast<double>(r.mttons.size()) / n;
    if (r.completeness == Completeness::kDegraded) {
      point.degraded_fraction += 1.0 / n;
    }
  }
  g_budget_curve[budget] = point;
}

void BM_AnytimeDeadline(benchmark::State& state, int64_t deadline_us) {
  auto& fixture = DblpBench::Get();
  std::vector<QueryResponse> runs;
  for (auto _ : state) {
    runs.clear();
    for (const auto& q : fixture.queries()) {
      QueryRequest request = MakeRequest(q);
      if (deadline_us > 0) {
        request.deadline = std::chrono::microseconds(deadline_us);
      }
      auto response = fixture.xk().Run(request);
      XK_CHECK(response.ok());
      benchmark::DoNotOptimize(response.value().mttons.size());
      runs.push_back(std::move(response).value());
    }
  }
  Record(state, runs);
}

std::string FormatBudget(double budget) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", budget);
  return buf;
}

void RegisterAll() {
  // B = 1e9 stands in for "unbounded": the budget admits every plan, so the
  // run must come back kComplete and anchors the top of the coverage curve.
  for (double budget : {1.0, 10.0, 100.0, 1e3, 1e4, 1e6, 1e9}) {
    auto* b = benchmark::RegisterBenchmark(
        ("AnytimeCostBudget/B:" + FormatBudget(budget)).c_str(),
        [budget](benchmark::State& state) {
          BM_AnytimeCostBudget(state, budget);
        });
    b->Unit(benchmark::kMillisecond);
    b->Iterations(1);
  }
  // us:0 is the unbounded wall-clock baseline the bounded points degrade from.
  for (int64_t us : {250, 1000, 5000, 20000, 0}) {
    auto* b = benchmark::RegisterBenchmark(
        (us > 0 ? "AnytimeDeadline/us:" + std::to_string(us)
                : std::string("AnytimeDeadline/us:unbounded"))
            .c_str(),
        [us](benchmark::State& state) { BM_AnytimeDeadline(state, us); });
    b->Unit(benchmark::kMillisecond);
    b->Iterations(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchJsonWriter writer("anytime");
  JsonTeeReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Coverage-vs-budget summary. The admission schedule is a cost-ordered
  // prefix per size class, so exhausted_class (and with it cns_skipped) must
  // move monotonically with the budget — this is the bench-level echo of the
  // ExhaustedClassMonotoneInCostBudget unit test, recorded in the sidecar so
  // a regression shows up in BENCH_anytime.json diffs.
  if (!g_budget_curve.empty()) {
    std::printf("\nAnytime coverage vs cost budget (means per query):\n");
    std::printf("%-12s %10s %10s %12s %10s %10s\n", "budget", "executed",
                "skipped", "exhausted", "results", "degraded");
    bool monotone = true;
    const Point* prev = nullptr;
    for (const auto& [budget, p] : g_budget_curve) {
      if (prev != nullptr && (p.exhausted_class < prev->exhausted_class ||
                              p.cns_skipped > prev->cns_skipped)) {
        monotone = false;
      }
      std::printf("%-12s %10.1f %10.1f %12.2f %10.1f %9.0f%%\n",
                  FormatBudget(budget).c_str(), p.cns_executed, p.cns_skipped,
                  p.exhausted_class, p.results, 100.0 * p.degraded_fraction);
      writer.AddRecord("AnytimeCoverage/B:" + FormatBudget(budget), 0,
                       {{"cns_executed", p.cns_executed},
                        {"cns_skipped", p.cns_skipped},
                        {"exhausted_class", p.exhausted_class},
                        {"results", p.results},
                        {"degraded_fraction", p.degraded_fraction}});
      prev = &p;
    }
    std::printf("coverage monotone in budget: %s\n", monotone ? "yes" : "NO");
    writer.AddRecord("AnytimeCoverageMonotone", 0,
                     {{"monotone", monotone ? 1.0 : 0.0}});
  }
  writer.WriteFile();
  benchmark::Shutdown();
  return 0;
}
