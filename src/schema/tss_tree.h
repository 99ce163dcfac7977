// Copyright (c) the XKeyword authors.
//
// Trees of TSS occurrences with directed TSS edges — the common shape of
// fragments (Definition 5.2) and candidate TSS networks (Section 4). A tree
// may contain the same segment several times (unfolding, Definition 5.1 /
// Figure 10: "fragments that contain the same TSS more than once").
//
// Shared machinery lives here: adjacency, outward multiplicities (the basis
// of Theorem 5.3), canonical keys for deduplication, and the structural
// impossibility rules (choice groups, unique containment parents, to-one
// duplicate neighbors) used both to prune candidate networks and to reject
// useless fragments.

#ifndef XK_SCHEMA_TSS_TREE_H_
#define XK_SCHEMA_TSS_TREE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "schema/tss_graph.h"

namespace xk::schema {

/// A directed instantiation of a TSS edge between two tree occurrences:
/// occurrence `from` plays the source role of `tss_edge`, `to` the target.
struct TssTreeEdge {
  int from;
  int to;
  TssEdgeId tss_edge;

  bool operator==(const TssTreeEdge&) const = default;
};

/// An uncycled graph (free tree) of TSS occurrences.
struct TssTree {
  /// Occurrence i is an instance of segment nodes[i].
  std::vector<TssId> nodes;
  std::vector<TssTreeEdge> edges;

  int size() const { return static_cast<int>(edges.size()); }
  int num_nodes() const { return static_cast<int>(nodes.size()); }

  /// node -> indexes into `edges` of incident edges.
  std::vector<std::vector<int>> Adjacency() const;

  /// Checks tree shape (connected, |edges| == |nodes|-1) and that every edge
  /// instantiates its TSS edge's endpoints correctly.
  Status Validate(const TssGraph& tss) const;

  /// Human-readable form, e.g. "P<-O->L" style "P{<-placed}O{line->}L".
  std::string ToString(const TssGraph& tss) const;
};

/// Multiplicity leaving occurrence `node` along `edges[edge_index]`:
/// forward_mult when the node is the source role, reverse_mult otherwise.
Mult OutwardMult(const TssTree& tree, const TssGraph& tss, int node,
                 int edge_index);

/// Canonical code of a tree: equal iff the trees are isomorphic respecting
/// segment labels, TSS edge ids and edge directions. An AHU token sequence:
/// a subtree encodes as its segment, its number of children, then one
/// (edge token, child code) pair per child in lexicographic order, where the
/// edge token is 2 * TSS edge id plus 1 when the edge leaves the parent. The
/// count makes the code prefix-free, so the code is exact, not a hash. The
/// tree is rooted at its centre; a bicentral tree takes the smaller of its
/// two rootings.
using CanonicalCode = std::vector<uint32_t>;

struct CanonicalCodeHash {
  size_t operator()(const CanonicalCode& code) const;
};

/// Computes canonical codes, reusing its scratch buffers across calls (the
/// tree enumerators encode hundreds of thousands of trees). Not thread-safe.
class CanonicalEncoder {
 public:
  void Encode(const TssTree& tree, CanonicalCode* code);

 private:
  void FindCentres(const TssTree& tree);
  void EncodeFrom(const TssTree& tree, int v, int via_edge, CanonicalCode* out);

  std::vector<int> adj_begin_, fill_, adj_;  // CSR: edge indexes per occurrence
  std::vector<int> peel_degree_, layer_, next_layer_;
  std::vector<std::pair<size_t, size_t>> segments_;  // stack across the recursion
  CanonicalCode sorted_, alt_;
};

/// The canonical code of one tree (a fresh encoder per call).
CanonicalCode CanonicalKey(const TssTree& tree, const TssGraph& tss);

/// Why a tree admits no instance (used in diagnostics and tests).
enum class Impossibility {
  kNone = 0,
  kChoiceConflict,        // one occurrence departs twice through a choice group
  kTwoContainmentParents, // an occurrence with two pure-containment incoming edges
  kToOneDuplicate,        // two equal-type neighbors through a to-one edge
};

/// Structural satisfiability: a tree that violates one of the three rules can
/// never be instantiated by any XML graph conforming to the schema. Returns
/// kNone when possible.
Impossibility CheckStructurallyPossible(const TssTree& tree, const TssGraph& tss);

inline bool IsStructurallyPossible(const TssTree& tree, const TssGraph& tss) {
  return CheckStructurallyPossible(tree, tss) == Impossibility::kNone;
}

}  // namespace xk::schema

#endif  // XK_SCHEMA_TSS_TREE_H_
