// Copyright (c) the XKeyword authors.
//
// Shared fixtures: the paper's running TPC-H example instance (Figure 1) and
// small helpers for building trees by hand.

#ifndef XK_TESTS_TEST_UTIL_H_
#define XK_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "datagen/tpch_gen.h"
#include "engine/xkeyword.h"
#include "schema/tss_graph.h"
#include "xml/xml_graph.h"

#define XK_ASSERT_OK(expr)                              \
  do {                                                  \
    auto _st = (expr);                                  \
    ASSERT_TRUE(_st.ok()) << _st.ToString();            \
  } while (false)

#define XK_EXPECT_OK(expr)                              \
  do {                                                  \
    auto _st = (expr);                                  \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (false)

/// ASSERT that a Result is ok and bind its value.
#define XK_ASSERT_OK_AND_ASSIGN(lhs, rexpr)                    \
  auto XK_CONCAT(_r_, __LINE__) = (rexpr);                     \
  ASSERT_TRUE(XK_CONCAT(_r_, __LINE__).ok())                   \
      << XK_CONCAT(_r_, __LINE__).status().ToString();         \
  lhs = XK_CONCAT(_r_, __LINE__).MoveValueUnsafe()

namespace xk::testing {

/// The hand-built instance of Figure 1: John (US) supplying lineitems whose
/// lines reference a TV part with VCR sub-parts and a "set of VCR and DVD"
/// product, plus Mike, orders, and a service call.
struct Figure1Database {
  xml::XmlGraph graph;
  schema::SchemaGraph schema;
  std::unique_ptr<schema::TssGraph> tss;

  // Handles used by assertions.
  xml::NodeId john, mike;
  xml::NodeId tv_part, vcr_part1, vcr_part2;
  xml::NodeId product;  // descr "set of VCR and DVD"
  xml::NodeId order1, order2;
  xml::NodeId lineitem_product;  // the lineitem whose line -> product
};

/// Builds the Figure-1 database. Dies on internal errors (test-only).
std::unique_ptr<Figure1Database> MakeFigure1Database();

/// One-call query helper over XKeyword::Run for tests that only care
/// about the result list: builds the QueryRequest, runs it, and returns the
/// mttons. Engine counters accumulate (ExecutionStats::Add) into *stats
/// across calls, except `results`, which is assigned per call. The
/// response's own status is discarded — a soft stop (deadline/cancel)
/// surfaces as a shorter result list, exactly like the response it wraps.
Result<std::vector<present::Mtton>> RunMode(
    const engine::XKeyword& engine, engine::QueryMode mode,
    const std::vector<std::string>& keywords, const std::string& decomposition,
    const engine::QueryOptions& options,
    engine::ExecutionStats* stats = nullptr);

inline Result<std::vector<present::Mtton>> RunTopK(
    const engine::XKeyword& engine, const std::vector<std::string>& keywords,
    const std::string& decomposition, const engine::QueryOptions& options,
    engine::ExecutionStats* stats = nullptr) {
  return RunMode(engine, engine::QueryMode::kTopK, keywords, decomposition,
                 options, stats);
}

inline Result<std::vector<present::Mtton>> RunNaive(
    const engine::XKeyword& engine, const std::vector<std::string>& keywords,
    const std::string& decomposition, const engine::QueryOptions& options,
    engine::ExecutionStats* stats = nullptr) {
  return RunMode(engine, engine::QueryMode::kNaive, keywords, decomposition,
                 options, stats);
}

inline Result<std::vector<present::Mtton>> RunAll(
    const engine::XKeyword& engine, const std::vector<std::string>& keywords,
    const std::string& decomposition, const engine::QueryOptions& options,
    engine::ExecutionStats* stats = nullptr) {
  return RunMode(engine, engine::QueryMode::kAll, keywords, decomposition,
                 options, stats);
}

}  // namespace xk::testing

#endif  // XK_TESTS_TEST_UTIL_H_
