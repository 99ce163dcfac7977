// Ablation A2 — candidate network generation (the DISCOVER-extension of
// Section 4): throughput and network counts versus the size bound Z and the
// number of keywords, on the DBLP schema; the title-word mappings the
// end-to-end benchmark hits; and the whole XKeyword::Prepare for them.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "cn/cn_generator.h"
#include "cn/ctssn.h"

namespace {

void BM_Generate(benchmark::State& state) {
  auto& fixture = xk::bench::DblpBench::Get();
  const int z = static_cast<int>(state.range(0));
  const int keywords = static_cast<int>(state.range(1));

  // Keywords on author names (and titles for the 3rd keyword).
  const xk::schema::SchemaGraph& schema = fixture.db().schema();
  xk::schema::SchemaNodeId author = *schema.NodeByUniqueLabel("author");
  xk::schema::SchemaNodeId title = *schema.NodeByUniqueLabel("title");
  std::vector<std::vector<xk::schema::SchemaNodeId>> keyword_nodes;
  for (int k = 0; k < keywords; ++k) {
    keyword_nodes.push_back(k % 2 == 0 ? std::vector<xk::schema::SchemaNodeId>{author}
                                       : std::vector<xk::schema::SchemaNodeId>{
                                             author, title});
  }

  xk::cn::CnGeneratorOptions options;
  options.max_size = z;
  xk::cn::CnGenerator generator(&schema, options);

  size_t networks = 0;
  for (auto _ : state) {
    auto cns = generator.Generate(keyword_nodes);
    benchmark::DoNotOptimize(cns);
    networks = cns.ok() ? cns->size() : 0;
  }
  state.counters["networks"] = benchmark::Counter(static_cast<double>(networks));
}

/// The mappings perfbench's topk_mem workload actually produces: every
/// keyword a title word, so {title} x keywords.
void BM_GenerateTitles(benchmark::State& state) {
  auto& fixture = xk::bench::DblpBench::Get();
  const xk::schema::SchemaGraph& schema = fixture.db().schema();
  const xk::schema::SchemaNodeId title = *schema.NodeByUniqueLabel("title");
  const std::vector<std::vector<xk::schema::SchemaNodeId>> keyword_nodes(
      static_cast<size_t>(state.range(1)), {title});
  xk::cn::CnGeneratorOptions options;
  options.max_size = static_cast<int>(state.range(0));
  const xk::cn::CnGenerator generator(&schema, options);

  size_t networks = 0;
  for (auto _ : state) {
    auto cns = generator.Generate(keyword_nodes);
    benchmark::DoNotOptimize(cns);
    networks = cns.ok() ? cns->size() : 0;
  }
  state.counters["networks"] = benchmark::Counter(static_cast<double>(networks));
}

/// The whole Prepare (discovery, generation, reduction, filter sets and
/// plans) of title-word queries at Z = 6.
void BM_Prepare(benchmark::State& state) {
  auto& fixture = xk::bench::DblpBench::Get();
  const std::vector<std::string>& words = fixture.db().title_words();
  std::vector<std::string> keywords(words.begin(),
                                    words.begin() + state.range(0));
  xk::engine::QueryOptions options;
  options.max_size_z = 6;

  size_t networks = 0;
  for (auto _ : state) {
    auto prepared = fixture.xk().Prepare(keywords, "MinClust", options);
    XK_CHECK(prepared.ok());
    networks = prepared->networks.size();
    benchmark::DoNotOptimize(prepared);
  }
  state.counters["networks"] = benchmark::Counter(static_cast<double>(networks));
}

void BM_Reduce(benchmark::State& state) {
  auto& fixture = xk::bench::DblpBench::Get();
  const xk::schema::SchemaGraph& schema = fixture.db().schema();
  xk::schema::SchemaNodeId author = *schema.NodeByUniqueLabel("author");
  xk::cn::CnGeneratorOptions options;
  options.max_size = static_cast<int>(state.range(0));
  xk::cn::CnGenerator generator(&schema, options);
  auto cns = generator.Generate({{author}, {author}});
  XK_CHECK(cns.ok());

  for (auto _ : state) {
    for (const xk::cn::CandidateNetwork& cn : *cns) {
      auto reduced = xk::cn::ReduceToCtssn(cn, schema, fixture.db().tss());
      benchmark::DoNotOptimize(reduced);
    }
  }
  state.counters["networks"] = benchmark::Counter(static_cast<double>(cns->size()));
}

}  // namespace

BENCHMARK(BM_Generate)
    ->ArgNames({"Z", "keywords"})
    ->Args({4, 2})
    ->Args({6, 2})
    ->Args({8, 2})
    ->Args({4, 3})
    ->Args({6, 3})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_GenerateTitles)
    ->ArgNames({"Z", "keywords"})
    ->Args({6, 2})
    ->Args({6, 3})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Prepare)
    ->ArgName("keywords")
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Reduce)->ArgName("Z")->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return xk::bench::RunBenchMain("cn_generator", argc, argv);
}
