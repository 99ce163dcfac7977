// Copyright (c) the XKeyword authors.
//
// The candidate network generator (Section 4): an extension of DISCOVER's
// generator to XML schema graphs. Partial networks are grown breadth-first by
// attaching schema-edge instantiations; a network is accepted when it is
// total (annotations partition the query keywords), minimal (every leaf
// non-free), within the size bound Z, and structurally possible. The XML
// extensions prune with the schema information DISCOVER lacks:
//
//   * choice nodes       — an occurrence of a choice node may have children
//                          along at most one alternative,
//   * containment        — an occurrence has at most one containment parent,
//   * maxOccurs          — two same-typed neighbors through a to-one edge
//                          would be forced to coincide (the R^K <- S -> R^K
//                          rule of DISCOVER, generalized).
//
// The generator is complete (every MTNN of size <= Z belongs to an output CN)
// and non-redundant (canonical deduplication + the pruning above).
//
// Implementation (DESIGN.md §3k): partial networks live in an arena as
// parent-pointer nodes (one fresh occurrence each), keyword annotations are
// bitmasks, the three pruning rules are checked only at the occurrence an
// extension touches, and deduplication hashes a centre-rooted canonical code.

#ifndef XK_CN_CN_GENERATOR_H_
#define XK_CN_CN_GENERATOR_H_

#include <vector>

#include "common/cancel_token.h"
#include "common/result.h"
#include "cn/candidate_network.h"

namespace xk::cn {

/// Keyword annotations are 32-bit masks, so a query has at most this many
/// keywords (Generate rejects more with InvalidArgument).
inline constexpr int kMaxKeywords = 32;

struct CnGeneratorOptions {
  /// Maximum MTNN size Z (network edges).
  int max_size = 6;
  /// Safety valve for pathological schemas: more distinct partial networks
  /// than this fails the generation with ResourceExhausted.
  size_t max_networks = 200'000;
  /// Polled every 256 extensions (not owned, may be null); a tripped token
  /// ends the generation with the token's status.
  const CancelToken* cancel = nullptr;
};

/// Input: for each query keyword, the schema nodes whose extension contains
/// it (from MasterIndex::SchemaNodesContaining).
class CnGenerator {
 public:
  CnGenerator(const schema::SchemaGraph* schema, CnGeneratorOptions options);

  /// Generates all candidate networks for `keyword_schema_nodes.size()`
  /// keywords, in nondecreasing size order. Each keyword's schema-node list
  /// is read as a set.
  Result<std::vector<CandidateNetwork>> Generate(
      const std::vector<std::vector<schema::SchemaNodeId>>& keyword_schema_nodes)
      const;

 private:
  const schema::SchemaGraph* schema_;
  CnGeneratorOptions options_;
};

/// Structural possibility of a (partial) network — the three XML pruning
/// rules above. Exposed for tests.
bool CnStructurallyPossible(const CandidateNetwork& cn,
                            const schema::SchemaGraph& schema);

}  // namespace xk::cn

#endif  // XK_CN_CN_GENERATOR_H_
