// Copyright (c) the XKeyword authors.
//
// The XKeyword system facade — the library's main entry point. Owns the
// loaded database (Figure 7's load stage output) plus any number of
// materialized decompositions, and runs keyword proximity queries through
// the pipeline keyword discoverer -> CN generator -> optimizer -> execution.
//
// Typical use:
//
//   auto xk = engine::XKeyword::Load(&graph, &schema, &tss).MoveValueUnsafe();
//   xk->AddDecomposition(decomp::MakeXKeyword(tss, /*B=*/2, /*M=*/4).value());
//   engine::QueryRequest request;
//   request.keywords = {"john", "vcr"};
//   request.decomposition = "XKeyword";
//   auto response = xk->Run(request);  // -> Result<QueryResponse>

#ifndef XK_ENGINE_XKEYWORD_H_
#define XK_ENGINE_XKEYWORD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "cn/cn_generator.h"
#include "engine/expansion.h"
#include "engine/full_executor.h"
#include "engine/load_stage.h"
#include "engine/naive_executor.h"
#include "engine/query_request.h"
#include "engine/topk_executor.h"

namespace xk::engine {

class XKeyword {
 public:
  /// Loads the database. The graph, schema and TSS graph must outlive the
  /// returned object. `storage` selects the backend: kMemory (default) keeps
  /// every substrate RAM-resident; kDisk spills rows, orderings, postings and
  /// BLOBs onto pages behind a pinning buffer pool with the given byte
  /// budget. XK_STORAGE_BACKEND / XK_BUFFER_POOL_BYTES environment overrides
  /// apply on top, so a whole test binary can be rerun against the disk
  /// backend without code changes.
  static Result<std::unique_ptr<XKeyword>> Load(
      const xml::XmlGraph* graph, const schema::SchemaGraph* schema,
      const schema::TssGraph* tss, const storage::StorageOptions& storage = {});

  /// Materializes a decomposition's connection relations; queries then refer
  /// to it by `d.name`.
  Status AddDecomposition(decomp::Decomposition d);

  Result<const decomp::Decomposition*> GetDecomposition(
      const std::string& name) const;

  /// Keyword discovery + CN generation + reduction + planning. Validates
  /// `options` first (QueryOptions::Validate) and rejects more than
  /// cn::kMaxKeywords keywords. A deadline or cancel on `options.cancel` that
  /// trips during CN generation, CTSSN reduction or planning fails Prepare
  /// with the token's status.
  Result<PreparedQuery> Prepare(const std::vector<std::string>& keywords,
                                const std::string& decomposition,
                                const QueryOptions& options) const;

  /// Serves one request synchronously — the unified entry point behind every
  /// mode. `token` (borrowed, may be null) lets the caller cancel the query
  /// from another thread; when null a private token enforces the request
  /// deadline. The request deadline is armed on the token unless one is
  /// already set (the serving layer arms it at admission so queue wait
  /// counts). A tripped deadline/cancel yields an OK Result whose response
  /// has status kDeadlineExceeded/kCancelled, completeness kDegraded (or
  /// kFailed when nothing was covered), a Coverage quality bound, and
  /// whatever mttons/stats were complete; outside kAll the executor
  /// additionally budgets whole candidate networks against the remaining
  /// deadline instead of truncating mid-CN. Hard failures yield an
  /// error Result. `sink` (borrowed, may be null) streams finalized result
  /// prefixes for kTopK queries (engine/result_sink.h); kNaive/kAll deliver
  /// everything in the response. Safe to call from many threads at once
  /// after loading.
  Result<QueryResponse> Run(const QueryRequest& request,
                            CancelToken* token = nullptr,
                            ResultSink* sink = nullptr) const;

  /// Presentation graph of network `ctssn_index` of a prepared query, seeded
  /// with the given results of that network.
  Result<present::PresentationGraph> MakePresentationGraph(
      const PreparedQuery& query, int ctssn_index,
      const std::vector<present::Mtton>& results) const;

  /// On-demand expansion engine over a materialized decomposition.
  Result<ExpansionEngine> MakeExpansionEngine(const std::string& decomposition) const;

  /// Monotonic generation of the loaded data. Bumped whenever the queryable
  /// state changes (today: AddDecomposition; a future reload path must bump
  /// it too). The serving layer tags every cached answer with the generation
  /// it was computed under, so a bump atomically invalidates stale answers.
  uint64_t data_generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // --- Introspection (tests, benches, examples) -------------------------

  const LoadedData& data() const { return *data_; }
  const keyword::MasterIndex& master_index() const { return data_->master_index; }
  const storage::Catalog& catalog() const { return data_->catalog; }
  const schema::TargetObjectGraph& objects() const { return data_->objects; }
  const schema::TssGraph& tss() const { return *tss_; }
  const schema::SchemaGraph& schema() const { return *schema_; }
  const xml::XmlGraph& graph() const { return *graph_; }

 private:
  XKeyword(const xml::XmlGraph* graph, const schema::SchemaGraph* schema,
           const schema::TssGraph* tss, std::unique_ptr<LoadedData> data)
      : graph_(graph), schema_(schema), tss_(tss), data_(std::move(data)) {}

  const xml::XmlGraph* graph_;
  const schema::SchemaGraph* schema_;
  const schema::TssGraph* tss_;
  std::unique_ptr<LoadedData> data_;
  std::map<std::string, decomp::Decomposition> decompositions_;
  std::atomic<uint64_t> generation_{1};
};

}  // namespace xk::engine

#endif  // XK_ENGINE_XKEYWORD_H_
