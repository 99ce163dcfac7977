// Ablation A4 — storage substrate microbenchmarks: the four physical access
// paths (clustered range, composite index, hash index, full scan) on a
// citation-sized connection relation, plus index-nested-loop join
// throughput. These are the primitive costs behind every Section-7 curve.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "storage/table.h"

namespace {

using xk::exec::ColumnBinding;
using xk::exec::ExecOptions;
using xk::exec::ForEachMatch;
using xk::storage::ObjectId;
using xk::storage::Table;
using xk::storage::Tuple;

enum class Physical { kClustered, kComposite, kHash, kNone };

std::unique_ptr<Table> MakeTable(Physical physical, int rows, int domain) {
  auto t = std::make_unique<Table>("edges", std::vector<std::string>{"src", "dst"});
  xk::Random rng(42);
  for (int i = 0; i < rows; ++i) {
    XK_CHECK(t->Append(Tuple{rng.Uniform(0, domain - 1), rng.Uniform(0, domain - 1)})
                 .ok());
  }
  switch (physical) {
    case Physical::kClustered:
      XK_CHECK(t->Cluster({0, 1}).ok());
      break;
    case Physical::kComposite:
      XK_CHECK(t->BuildCompositeIndex({0, 1}).ok());
      break;
    case Physical::kHash:
      XK_CHECK(t->BuildHashIndex(0).ok());
      break;
    case Physical::kNone:
      break;
  }
  t->Freeze();
  return t;
}

constexpr int kRows = 200000;
constexpr int kDomain = 10000;

void BM_Probe(benchmark::State& state, Physical physical) {
  auto table = MakeTable(physical, kRows, kDomain);
  ExecOptions options;
  options.use_indexes = physical != Physical::kNone;
  xk::Random rng(7);
  uint64_t matched = 0;
  for (auto _ : state) {
    ObjectId key = rng.Uniform(0, kDomain - 1);
    ForEachMatch(*table, {ColumnBinding{0, key}}, {}, options,
                 [&](xk::storage::RowId) {
                   ++matched;
                   return true;
                 },
                 nullptr);
  }
  state.counters["rows/probe"] = benchmark::Counter(
      static_cast<double>(matched) / static_cast<double>(state.iterations()));
}

void BM_Join(benchmark::State& state) {
  auto left = MakeTable(Physical::kHash, kRows / 4, kDomain);
  auto right = MakeTable(Physical::kHash, kRows / 4, kDomain);
  xk::exec::JoinQuery query;
  query.steps.push_back(xk::exec::JoinStep{left.get(), {}, {}, {}});
  xk::exec::JoinStep step2;
  step2.table = right.get();
  step2.eq.push_back({0, xk::exec::ColumnRef{0, 1}});
  query.steps.push_back(step2);

  uint64_t rows = 0;
  for (auto _ : state) {
    xk::exec::NestedLoopExecutor executor(&query, ExecOptions{});
    XK_CHECK(executor
                 .Run([&](const std::vector<xk::storage::TupleView>&) {
                   ++rows;
                   return true;
                 })
                 .ok());
  }
  state.counters["out_rows"] = benchmark::Counter(
      static_cast<double>(rows) / static_cast<double>(state.iterations()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_Probe, clustered_range, Physical::kClustered);
BENCHMARK_CAPTURE(BM_Probe, composite_index, Physical::kComposite);
BENCHMARK_CAPTURE(BM_Probe, hash_index, Physical::kHash);
BENCHMARK_CAPTURE(BM_Probe, full_scan, Physical::kNone)->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_Join)->Name("BM_Join/index_nested_loop")->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return xk::bench::RunBenchMain("storage", argc, argv);
}
