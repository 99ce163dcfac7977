// Ablation A1 — the space side of Section 5.1's trade-off: fragments, rows
// and bytes of each decomposition, plus build time split into enumeration,
// the Figure-12 cover and materialization. The paper's qualitative
// claims to check: the maximal/complete decompositions are dominated by MVD
// fragments whose relations exhibit multivalued blow-up, while the XKeyword
// decomposition buys the same join bound with mostly inlined fragments.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "decomp/classify.h"
#include "decomp/enumerate.h"
#include "decomp/relation_builder.h"
#include "engine/load_stage.h"

int main() {
  using namespace xk;
  auto& fixture = bench::DblpBench::Get();
  const schema::TssGraph& tss = fixture.db().tss();
  const storage::Catalog& catalog = fixture.xk().catalog();
  bench::BenchJsonWriter writer("decomp_space");

  std::printf("Decomposition space (DBLP, B=2, M=6, L=2):\n");
  std::printf("%-16s %6s %6s %6s %6s %12s %10s\n", "decomposition", "frags",
              "4NF", "inl", "MVD", "rows", "MB");

  for (const char* name :
       {"XKeyword", "Complete", "MinClust", "MinNClustIndx", "MinNClustNIndx",
        "Inlined", "combination"}) {
    auto d = fixture.xk().GetDecomposition(name);
    if (!d.ok()) continue;
    int by_class[3] = {0, 0, 0};
    size_t rows = 0;
    size_t bytes = 0;
    for (const decomp::Fragment& f : (*d)->fragments) {
      ++by_class[static_cast<int>(decomp::Classify(f, tss))];
      auto table = catalog.GetTable(decomp::RelationName(**d, f));
      if (table.ok()) {
        rows += (*table)->NumRows();
        bytes += (*table)->MemoryBytes();
      }
    }
    std::printf("%-16s %6zu %6d %6d %6d %12zu %10.1f\n", name,
                (*d)->fragments.size(), by_class[0], by_class[1], by_class[2],
                rows, static_cast<double>(bytes) / 1e6);
    writer.AddRecord(std::string("DecompSpace/") + name, 0,
                     {{"fragments", static_cast<double>((*d)->fragments.size())},
                      {"rows", static_cast<double>(rows)},
                      {"bytes", static_cast<double>(bytes)}},
                     name);
  }

  // Theorem 5.1 sweep: fragment size bound L vs join bound B for M = 6.
  std::printf("\nTheorem 5.1: L = ceil(M/(B+1)) for M = 6:\n");
  for (int b = 0; b <= 5; ++b) {
    std::printf("  B=%d -> L=%d\n", b, decomp::FragmentSizeBound(6, b));
  }

  // Build time of the Figure-12 algorithm per (B, M), split into its
  // stages: enumerate (EnumerateTrees of every useful tree of size <= M),
  // cover (the rest of MakeXKeyword: steps 1-4 of Figure 12, i.e. the whole
  // call minus a separate enumeration of the same M) and materialize
  // (MaterializeDecomposition of the result into a fresh load of the
  // fixture database: instances, clustering, per-direction indexes).
  std::printf("\nFigure-12 decomposition build time (enumerate + cover, then materialize):\n");
  const datagen::DblpDatabase& db = fixture.db();
  for (int m : {4, 5, 6}) {
    for (int b : {1, 2, 3}) {
      Stopwatch enumerate_sw;
      decomp::EnumerateOptions opts;
      opts.max_size = m;
      auto trees = decomp::EnumerateTrees(tss, opts);
      const double enumerate_ms = enumerate_sw.ElapsedMillis();
      if (!trees.ok()) continue;
      Stopwatch sw;
      auto d = decomp::MakeXKeyword(tss, b, m);
      if (!d.ok()) continue;
      const double ms = sw.ElapsedMillis();
      const double cover_ms = std::max(0.0, ms - enumerate_ms);
      auto data = engine::RunLoadStage(db.graph(), db.schema(), tss);
      if (!data.ok()) continue;
      Stopwatch materialize_sw;
      if (!engine::MaterializeDecomposition(*d, tss, data->get()).ok()) continue;
      const double materialize_ms = materialize_sw.ElapsedMillis();
      std::printf("  B=%d M=%d: %7.1f ms (enumerate %6.1f, cover %7.1f), "
                  "materialize %7.1f ms, %3zu fragments\n",
                  b, m, ms, enumerate_ms, cover_ms, materialize_ms,
                  d->fragments.size());
      const std::string point =
          "DecompSpace/build/B:" + std::to_string(b) + "/M:" + std::to_string(m);
      const std::map<std::string, double> counters = {
          {"fragments", static_cast<double>(d->fragments.size())},
          {"trees", static_cast<double>(trees->size())}};
      writer.AddRecord(point, ms * 1e6, counters);
      writer.AddRecord(point + "/enumerate", enumerate_ms * 1e6, counters);
      writer.AddRecord(point + "/cover", cover_ms * 1e6, counters);
      writer.AddRecord(point + "/materialize", materialize_ms * 1e6, counters);
    }
  }
  writer.WriteFile();
  return 0;
}
