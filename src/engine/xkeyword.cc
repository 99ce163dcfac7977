#include "engine/xkeyword.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "cn/ctssn.h"

namespace xk::engine {

Result<std::unique_ptr<XKeyword>> XKeyword::Load(
    const xml::XmlGraph* graph, const schema::SchemaGraph* schema,
    const schema::TssGraph* tss, const storage::StorageOptions& storage) {
  if (graph == nullptr || schema == nullptr || tss == nullptr) {
    return Status::InvalidArgument("null input");
  }
  XK_ASSIGN_OR_RETURN(std::unique_ptr<LoadedData> data,
                      RunLoadStage(*graph, *schema, *tss, storage));
  return std::unique_ptr<XKeyword>(
      new XKeyword(graph, schema, tss, std::move(data)));
}

Status XKeyword::AddDecomposition(decomp::Decomposition d) {
  if (decompositions_.contains(d.name)) {
    return Status::AlreadyExists(StrFormat("decomposition %s", d.name.c_str()));
  }
  XK_RETURN_NOT_OK(MaterializeDecomposition(d, *tss_, data_.get()));
  decompositions_.emplace(d.name, std::move(d));
  // Answers computed before this decomposition existed are now stale (the
  // new connection relations can produce results the old plans could not).
  generation_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Result<const decomp::Decomposition*> XKeyword::GetDecomposition(
    const std::string& name) const {
  auto it = decompositions_.find(name);
  if (it == decompositions_.end()) {
    return Status::NotFound(StrFormat("decomposition %s", name.c_str()));
  }
  return &it->second;
}

Result<PreparedQuery> XKeyword::Prepare(const std::vector<std::string>& keywords,
                                        const std::string& decomposition,
                                        const QueryOptions& options) const {
  XK_RETURN_NOT_OK(options.Validate());
  if (keywords.empty()) return Status::InvalidArgument("no keywords");
  if (keywords.size() > static_cast<size_t>(cn::kMaxKeywords)) {
    return Status::InvalidArgument(StrFormat(
        "%zu keywords; at most %d are supported", keywords.size(), cn::kMaxKeywords));
  }
  XK_ASSIGN_OR_RETURN(const decomp::Decomposition* d,
                      GetDecomposition(decomposition));

  PreparedQuery q;
  q.keywords = keywords;
  q.exec_options.use_indexes = d->use_indexes_at_runtime;

  // Keyword discoverer: which schema nodes hold each keyword.
  std::vector<std::vector<schema::SchemaNodeId>> keyword_schema_nodes;
  keyword_schema_nodes.reserve(keywords.size());
  for (const std::string& k : keywords) {
    keyword_schema_nodes.push_back(data_->master_index.SchemaNodesContaining(k));
  }

  // CN generation; a deadline or cancel on options.cancel stops it with the
  // token's status.
  cn::CnGeneratorOptions gen_options;
  gen_options.max_size = options.max_size_z;
  gen_options.cancel = options.cancel;
  cn::CnGenerator generator(schema_, gen_options);
  XK_ASSIGN_OR_RETURN(std::vector<cn::CandidateNetwork> networks,
                      generator.Generate(keyword_schema_nodes));

  // Deadline/cancel poll between the per-network steps below (the generator
  // polls on its own); a tripped token fails Prepare with its status.
  auto stopped = [&] {
    return options.cancel != nullptr && options.cancel->StopRequested();
  };

  // Reduce each CN to its CTSSN; skip shapes the TSS graph cannot express.
  for (cn::CandidateNetwork& network : networks) {
    if (stopped()) return options.cancel->ToStatus();
    Result<cn::Ctssn> reduced = cn::ReduceToCtssn(network, *schema_, *tss_);
    if (!reduced.ok()) {
      XK_LOG(Debug) << "skipping CN (" << reduced.status().ToString()
                    << "): " << network.ToString(*schema_);
      continue;
    }
    q.networks.push_back(std::move(network));
    q.ctssns.push_back(reduced.MoveValueUnsafe());
  }

  // Keyword filter sets: (keyword, schema node) -> target object ids.
  for (const cn::Ctssn& ctssn : q.ctssns) {
    for (const auto& kws : ctssn.node_keywords) {
      for (const cn::CtssnKeyword& kw : kws) {
        auto key = std::make_pair(kw.keyword, kw.schema_node);
        if (q.filter_sets.contains(key)) continue;
        storage::IdSet& set = q.filter_sets[key];
        for (const keyword::Posting& p : data_->master_index.ContainingList(
                 keywords[static_cast<size_t>(kw.keyword)])) {
          if (p.schema_node == kw.schema_node) set.insert(p.to_id);
        }
      }
    }
  }

  // Per-network node filters and plans.
  opt::Optimizer optimizer(tss_, d, &data_->catalog, &data_->objects);
  for (const cn::Ctssn& ctssn : q.ctssns) {
    if (stopped()) return options.cancel->ToStatus();
    opt::NodeFilters filters(static_cast<size_t>(ctssn.num_nodes()));
    for (int v = 0; v < ctssn.num_nodes(); ++v) {
      for (const cn::CtssnKeyword& kw :
           ctssn.node_keywords[static_cast<size_t>(v)]) {
        filters[static_cast<size_t>(v)].push_back(
            &q.filter_sets.at({kw.keyword, kw.schema_node}));
      }
    }
    XK_ASSIGN_OR_RETURN(opt::CtssnPlan plan, optimizer.Plan(ctssn, filters));
    q.node_filters.push_back(std::move(filters));
    q.plans.push_back(std::move(plan));
  }
  return q;
}

Result<QueryResponse> XKeyword::Run(const QueryRequest& request,
                                    CancelToken* token, ResultSink* sink) const {
  CancelToken local_token;
  CancelToken* tok = token != nullptr ? token : &local_token;
  // The serving layer arms the deadline at admission (queue wait counts);
  // for direct synchronous calls the budget starts here.
  if (request.deadline.count() > 0 && !tok->has_deadline()) {
    tok->SetDeadlineAfter(request.deadline);
  }

  QueryOptions options = request.options;
  options.cancel = tok;
  if (sink != nullptr) sink->BindCancelToken(tok);
  // Discard page counters this thread accumulated outside any query (load
  // stage, decomposition spills) so the drain below attributes only this
  // query's traffic — Prepare's posting-list reads included.
  (void)storage::BufferPool::DrainThreadCounters();
  Result<PreparedQuery> prepared =
      Prepare(request.keywords, request.decomposition, options);
  if (!prepared.ok() && !IsStopStatus(prepared.status())) {
    return prepared.status();
  }
  if (!prepared.ok() || tok->StopRequested()) {
    // The budget ran out during preparation: nothing was covered at all.
    return StoppedBeforeExecution(*tok, prepared.ok() ? prepared->plans.size() : 0);
  }
  PreparedQuery q = prepared.MoveValueUnsafe();

  QueryResponse response;
  Result<std::vector<present::Mtton>> results = Status::Internal("unreachable");
  switch (request.mode) {
    case QueryMode::kTopK: {
      TopKExecutor executor;
      results = executor.Run(q, options, &response.stats, &response.coverage,
                             sink);
      break;
    }
    case QueryMode::kNaive: {
      NaiveExecutor executor;
      results = executor.Run(q, options, &response.stats, &response.coverage);
      break;
    }
    case QueryMode::kAll: {
      FullExecutor executor(options);
      results = executor.Run(q, &response.stats, &response.coverage);
      break;
    }
  }
  if (!results.ok()) return results.status();
  // Disk traffic the query thread itself caused (worker threads drain at
  // their own merge points inside the executors).
  DrainPageCounters(&response.stats);
  response.mttons = results.MoveValueUnsafe();
  if (tok->StopRequested()) {
    response.status = tok->ToStatus();
    // Conservative: a tripped token may have landed between the executor's
    // last poll and here, so never report kComplete alongside a non-OK
    // status even if the ledger saw every plan finish.
    response.coverage.interrupted = true;
  } else if (response.coverage.deadline_limited) {
    // Deadline admission skipped networks the remaining time could not
    // afford: degraded by the wall clock, not by the deterministic budget.
    response.status = Status::DeadlineExceeded(
        "query deadline exceeded: networks skipped to meet it");
  }
  response.completeness =
      DeriveCompleteness(response.coverage, !response.mttons.empty());
  return response;
}

Result<present::PresentationGraph> XKeyword::MakePresentationGraph(
    const PreparedQuery& query, int ctssn_index,
    const std::vector<present::Mtton>& results) const {
  if (ctssn_index < 0 || static_cast<size_t>(ctssn_index) >= query.ctssns.size()) {
    return Status::OutOfRange("bad network index");
  }
  present::PresentationGraph pg(&query.ctssns[static_cast<size_t>(ctssn_index)]);
  for (const present::Mtton& m : results) {
    if (m.ctssn_index == ctssn_index) pg.AddMtton(m);
  }
  return pg;
}

Result<ExpansionEngine> XKeyword::MakeExpansionEngine(
    const std::string& decomposition) const {
  XK_ASSIGN_OR_RETURN(const decomp::Decomposition* d,
                      GetDecomposition(decomposition));
  return ExpansionEngine(tss_, d, &data_->catalog);
}

}  // namespace xk::engine
