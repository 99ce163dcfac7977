// Copyright (c) the XKeyword authors.
//
// ResultSink: the incremental-streaming hook of the execution engine. A
// caller that wants results before the query finishes (the network front end
// in src/net/) installs one; the top-k executor then publishes *finalized
// prefixes* of the eventual response as execution proves them final.
//
// Contract: the concatenation of every batch passed to OnBatch, in call
// order, is exactly a prefix of the final QueryResponse::mttons — same hits,
// same order. The executor guarantees this by streaming along the plan
// schedule's size-class watermark (opt::PlanSchedule): once every scheduled plan of CN size
// class <= C has finished (completed, hit its result cap, been skipped by
// the anytime budget, or been interrupted), the result set with score <= C
// can no longer change, and its sorted form is by construction the prefix of
// the final sorted result list. Results of classes still in flight — and
// everything after a deadline/cancel stop — ride the final response instead.
//
// OnBatch may block (the network layer blocks it on a bounded per-connection
// outbox for backpressure); it is called with the executor's result lock
// held, so a stalled sink stalls only its own query, never the engine. It is
// never called concurrently for one query. Executors that cannot prove
// finalized prefixes (the naive and full executors) simply never call it;
// the full response then arrives at once.

#ifndef XK_ENGINE_RESULT_SINK_H_
#define XK_ENGINE_RESULT_SINK_H_

#include <span>

#include "common/cancel_token.h"
#include "present/mtton.h"

namespace xk::engine {

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// The next finalized results of the eventual sorted response, in order.
  /// Cancellation is signalled through the query's CancelToken, not through
  /// this call: a sink that wants the query stopped requests a cancel and
  /// simply returns.
  virtual void OnBatch(std::span<const present::Mtton> batch) = 0;

  /// Installed by the engine front-end (XKeyword::Run) before execution
  /// begins: the token governing this query. A blocking OnBatch (bounded
  /// outbox full) polls it so a deadline or cancel always breaks the stall.
  /// Null until bound; stays valid for the duration of the run.
  void BindCancelToken(const CancelToken* token) { cancel_token_ = token; }

 protected:
  const CancelToken* cancel_token() const { return cancel_token_; }

 private:
  const CancelToken* cancel_token_ = nullptr;
};

}  // namespace xk::engine

#endif  // XK_ENGINE_RESULT_SINK_H_
