// Copyright (c) the XKeyword authors.
//
// A/B microbenchmarks for the vectorized execution path: row-at-a-time vs
// block-at-a-time variants of the filtered scan, the hash join (legacy
// unordered_map build vs flat open-addressing JoinHashTable), and the
// index-nested-loop join, over synthetic tables sized independently of the
// DBLP fixture. Every series point reports rows/sec so the speedup is a
// straight ratio of the row and block variants.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "exec/operators.h"
#include "exec/plan.h"

namespace xk::bench {
namespace {

using exec::ColumnInSet;
using exec::ColumnRef;
using exec::ExecOptions;
using exec::ForEachMatch;
using exec::HashJoinExecutor;
using exec::JoinQuery;
using exec::JoinStep;
using exec::NestedLoopExecutor;
using storage::ObjectId;
using storage::RowId;
using storage::Table;
using storage::Tuple;

/// Synthetic fixture, built once: a scan table with a ~50%-selective in-set
/// filter, and an equi-join pair with ~2 build rows per key (so hash-join
/// output stays linear in the input).
struct SyntheticTables {
  static SyntheticTables& Get() {
    static SyntheticTables* instance = new SyntheticTables();
    return *instance;
  }

  size_t scan_rows;
  size_t join_rows;
  std::unique_ptr<Table> scan;
  std::unique_ptr<Table> left;
  std::unique_ptr<Table> right;  // hash-indexed on column 0
  storage::IdSet keep;           // ~half of the scan table's value domain

 private:
  SyntheticTables() {
    const char* scale = std::getenv("XK_BENCH_SCALE");
    const bool tiny = scale != nullptr && std::string(scale) == "tiny";
    scan_rows = tiny ? 20'000 : 400'000;
    join_rows = tiny ? 5'000 : 100'000;

    Random rng(2003);
    constexpr ObjectId kScanDomain = 100;
    scan = std::make_unique<Table>("scan",
                                   std::vector<std::string>{"a", "b"});
    for (size_t i = 0; i < scan_rows; ++i) {
      XK_CHECK(scan->Append(Tuple{rng.Uniform(0, kScanDomain - 1),
                                  rng.Uniform(0, kScanDomain - 1)})
                   .ok());
    }
    for (ObjectId v = 0; v < kScanDomain; v += 2) keep.insert(v);

    const ObjectId join_domain = static_cast<ObjectId>(join_rows / 2);
    left = std::make_unique<Table>("left",
                                   std::vector<std::string>{"src", "dst"});
    right = std::make_unique<Table>("right",
                                    std::vector<std::string>{"src", "dst"});
    for (size_t i = 0; i < join_rows; ++i) {
      XK_CHECK(left->Append(Tuple{rng.Uniform(0, join_domain - 1),
                                  rng.Uniform(0, join_domain - 1)})
                   .ok());
      XK_CHECK(right->Append(Tuple{rng.Uniform(0, join_domain - 1),
                                   rng.Uniform(0, join_domain - 1)})
                   .ok());
    }
    XK_CHECK(right->BuildHashIndex(0).ok());
    scan->Freeze();
    left->Freeze();
    right->Freeze();
  }
};

/// left |><| right on right.src == left.dst, no local filters.
JoinQuery MakeJoinQuery(const SyntheticTables& t) {
  JoinQuery q;
  JoinStep s0;
  s0.table = t.left.get();
  q.steps.push_back(s0);
  JoinStep s1;
  s1.table = t.right.get();
  s1.eq.push_back({0, ColumnRef{0, 1}});
  q.steps.push_back(s1);
  return q;
}

void BM_Scan(benchmark::State& state, bool vectorized) {
  SyntheticTables& t = SyntheticTables::Get();
  ExecOptions opts;
  opts.use_indexes = false;
  opts.vectorized = vectorized;
  size_t matched = 0;
  for (auto _ : state) {
    size_t n = 0;
    ForEachMatch(*t.scan, {}, {ColumnInSet{0, &t.keep}}, opts,
                 [&](RowId) {
                   ++n;
                   return true;
                 },
                 nullptr);
    benchmark::DoNotOptimize(n);
    matched = n;
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(t.scan_rows),
      benchmark::Counter::kIsRate);
  state.counters["matched"] = static_cast<double>(matched);
}

void BM_HashJoin(benchmark::State& state, bool vectorized) {
  SyntheticTables& t = SyntheticTables::Get();
  const JoinQuery q = MakeJoinQuery(t);
  ExecOptions opts;
  opts.vectorized = vectorized;
  size_t results = 0;
  for (auto _ : state) {
    HashJoinExecutor hj(&q, opts);
    size_t n = 0;
    XK_CHECK(hj.Run([&](const std::vector<storage::TupleView>&) {
                 ++n;
                 return true;
               })
                 .ok());
    benchmark::DoNotOptimize(n);
    results = n;
  }
  // Work per iteration: one pass over the probe side plus one over the build
  // side — identical for both variants, so rows/sec ratios are time ratios.
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(2 * t.join_rows),
      benchmark::Counter::kIsRate);
  state.counters["results"] = static_cast<double>(results);
}

void BM_InlJoin(benchmark::State& state, bool vectorized) {
  SyntheticTables& t = SyntheticTables::Get();
  const JoinQuery q = MakeJoinQuery(t);
  ExecOptions opts;
  opts.vectorized = vectorized;
  size_t results = 0;
  for (auto _ : state) {
    NestedLoopExecutor nl(&q, opts);
    size_t n = 0;
    XK_CHECK(nl.Run([&](const std::vector<storage::TupleView>&) {
                 ++n;
                 return true;
               })
                 .ok());
    benchmark::DoNotOptimize(n);
    results = n;
  }
  // Work per iteration: every driver row probed once through the hash index.
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(t.join_rows),
      benchmark::Counter::kIsRate);
  state.counters["results"] = static_cast<double>(results);
}

BENCHMARK_CAPTURE(BM_Scan, row, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Scan, block, true)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_HashJoin, row, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_HashJoin, block, true)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_InlJoin, row, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_InlJoin, block, true)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xk::bench

int main(int argc, char** argv) {
  return xk::bench::RunBenchMain("exec_vectorized", argc, argv);
}
