// Copyright (c) the XKeyword authors.
//
// Shared fixture for the Section-7 experiment benches: the DBLP-like
// database of the paper (synthetic citations, ~20 per paper), loaded once
// with every decomposition of Figure 15/16 materialized:
//
//   XKeyword       — Figure-12 algorithm, B = 2, M = 6
//   Complete       — all useful fragments of size L = 2
//   MinClust       — minimal, clustered per direction
//   MinNClustIndx  — minimal, hash index per attribute
//   MinNClustNIndx — minimal, no indexes (and index use disabled)
//   Inlined        — XKeyword minus redundant single-edge fragments (16b)
//   combination    — Inlined ∪ minimal (16b)
//
// Query workload: two-keyword queries over author names, mixing frequent
// (Zipf-head) and rarer names, as in the paper's experiments.

#ifndef XK_BENCH_BENCH_UTIL_H_
#define XK_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "datagen/dblp_gen.h"
#include "engine/xkeyword.h"

namespace xk::bench {

/// Machine-readable sidecar output: every bench binary writes a
/// `BENCH_<name>.json` next to its console report so drivers can diff series
/// (ns/op, rows_scanned, bloom_skips, ...) across commits without scraping
/// stdout. The file goes to $XK_BENCH_JSON_DIR (default: cwd).
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// One series point. `counters` carries the same values as the benchmark
  /// counters (rows_scanned, bloom_skips, results/query, ...).
  void AddRecord(const std::string& name, double ns_per_op,
                 const std::map<std::string, double>& counters,
                 const std::string& label = "", double iterations = 0) {
    records_.push_back(Record{name, label, ns_per_op, iterations, counters});
  }

  bool WriteFile() const {
    std::string dir = ".";
    if (const char* env = std::getenv("XK_BENCH_JSON_DIR"); env != nullptr) {
      dir = env;
    }
    const std::string path = dir + "/BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    const char* scale = std::getenv("XK_BENCH_SCALE");
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": \"%s\",\n",
                 Escaped(bench_name_).c_str(),
                 scale != nullptr ? Escaped(scale).c_str() : "default");
    std::fprintf(f, "  \"benchmarks\": [");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"label\": \"%s\", ",
                   i == 0 ? "" : ",", Escaped(r.name).c_str(),
                   Escaped(r.label).c_str());
      std::fprintf(f, "\"iterations\": %.0f, \"ns_per_op\": %.3f", r.iterations,
                   r.ns_per_op);
      for (const auto& [key, value] : r.counters) {
        std::fprintf(f, ", \"%s\": %.3f", Escaped(key).c_str(), value);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("BENCH json: %s\n", path.c_str());
    return true;
  }

 private:
  struct Record {
    std::string name;
    std::string label;
    double ns_per_op;
    double iterations;
    std::map<std::string, double> counters;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out.push_back(' ');
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string bench_name_;
  std::vector<Record> records_;
};

/// Console reporter that tees every run into a BenchJsonWriter.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(BenchJsonWriter* writer) : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::map<std::string, double> counters;
      for (const auto& [key, counter] : run.counters) {
        counters[key] = static_cast<double>(counter.value);
      }
      const double iters = static_cast<double>(run.iterations);
      writer_->AddRecord(run.benchmark_name(),
                         iters > 0 ? run.real_accumulated_time / iters * 1e9 : 0,
                         counters, run.report_label, iters);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchJsonWriter* writer_;
};

/// Drop-in main body for google-benchmark binaries: console output plus the
/// BENCH_<name>.json sidecar. Register benchmarks first, then call this.
inline int RunBenchMain(const char* bench_name, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  BenchJsonWriter writer(bench_name);
  JsonTeeReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  writer.WriteFile();
  benchmark::Shutdown();
  return 0;
}

class DblpBench {
 public:
  static DblpBench& Get() {
    static DblpBench* instance = new DblpBench();
    return *instance;
  }

  const datagen::DblpDatabase& db() const { return *db_; }
  engine::XKeyword& xk() { return *xk_; }
  const std::vector<std::vector<std::string>>& queries() const { return queries_; }

  /// Prepared queries for a decomposition, cached (preparation — CN
  /// generation + planning — is shared across series points, as the paper's
  /// experiments time execution under different physical designs).
  const std::vector<engine::PreparedQuery>& Prepared(const std::string& decomposition,
                                                     int z) {
    std::string key = decomposition + "/" + std::to_string(z);
    auto it = prepared_.find(key);
    if (it != prepared_.end()) return it->second;
    engine::QueryOptions options;
    options.max_size_z = z;
    std::vector<engine::PreparedQuery> prepared;
    for (const auto& q : queries_) {
      auto p = xk_->Prepare(q, decomposition, options);
      XK_CHECK(p.ok());
      prepared.push_back(p.MoveValueUnsafe());
    }
    return prepared_.emplace(std::move(key), std::move(prepared)).first->second;
  }

 private:
  DblpBench() {
    datagen::DblpConfig config;
    config.num_conferences = 10;
    config.years_per_conference = 6;
    config.avg_papers_per_year = 20;
    config.avg_citations_per_paper = 20.0;  // the paper's citation fanout
    config.author_vocab = 200;
    config.title_vocab = 200;
    config.seed = 2003;
    // XK_BENCH_SCALE=tiny shrinks the database so smoke runs (the ctest
    // bench_smoke target, CI sanity checks) finish in seconds. Series values
    // are not comparable across scales — the JSON sidecar records the scale.
    if (const char* scale = std::getenv("XK_BENCH_SCALE");
        scale != nullptr && std::string(scale) == "tiny") {
      config.num_conferences = 3;
      config.years_per_conference = 3;
      config.avg_papers_per_year = 6;
      config.avg_citations_per_paper = 4.0;
      config.author_vocab = 60;
      config.title_vocab = 60;
    }
    db_ = datagen::DblpDatabase::Generate(config).MoveValueUnsafe();
    xk_ = engine::XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
              .MoveValueUnsafe();

    decomp::Decomposition minimal = decomp::MakeMinimal(
        db_->tss(), decomp::PhysicalDesign::kClusterPerDirection);
    decomp::Decomposition inlined =
        decomp::MakeInlined(db_->tss(), /*B=*/2, /*M=*/6).MoveValueUnsafe();
    decomp::Decomposition combination =
        decomp::Combine(inlined, minimal, db_->tss(), "combination");

    XK_CHECK(xk_->AddDecomposition(
                    decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/6)
                        .MoveValueUnsafe())
                 .ok());
    XK_CHECK(xk_->AddDecomposition(
                    decomp::MakeComplete(db_->tss(), /*L=*/2).MoveValueUnsafe())
                 .ok());
    XK_CHECK(xk_->AddDecomposition(minimal).ok());
    XK_CHECK(xk_->AddDecomposition(decomp::MakeMinimal(
                                       db_->tss(),
                                       decomp::PhysicalDesign::kHashIndexPerColumn))
                 .ok());
    XK_CHECK(xk_->AddDecomposition(
                    decomp::MakeMinimal(db_->tss(), decomp::PhysicalDesign::kNone,
                                        /*use_indexes_at_runtime=*/false))
                 .ok());
    XK_CHECK(xk_->AddDecomposition(std::move(inlined)).ok());
    XK_CHECK(xk_->AddDecomposition(std::move(combination)).ok());

    // Two-keyword author queries: Zipf-frequent heads plus rarer tails.
    queries_ = {{"ullman", "widom"},   {"gray", "codd"},
                {"garcia", "suciu"},   {"molina", "author23"},
                {"author31", "gray"},  {"stonebraker", "author47"}};
  }

  std::unique_ptr<datagen::DblpDatabase> db_;
  std::unique_ptr<engine::XKeyword> xk_;
  std::vector<std::vector<std::string>> queries_;
  std::map<std::string, std::vector<engine::PreparedQuery>> prepared_;
};

}  // namespace xk::bench

#endif  // XK_BENCH_BENCH_UTIL_H_
