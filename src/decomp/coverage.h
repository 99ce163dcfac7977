// Copyright (c) the XKeyword authors.
//
// Coverage of candidate TSS networks by decompositions (Section 5.1): a
// CTSSN C is covered by decomposition D with at most B joins when C's edges
// can be tiled by embeddings of D's fragments joined on shared occurrences.
// Choosing the tiling is the NP-complete optimizer subproblem the paper
// mentions; networks have <= ~8 edges, so an exact DP over edge bitmasks is
// feasible and used both by the Figure-12 decomposition algorithm and by the
// query optimizer.

#ifndef XK_DECOMP_COVERAGE_H_
#define XK_DECOMP_COVERAGE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "decomp/fragment.h"

namespace xk::decomp {

/// An occurrence-preserving embedding of a fragment into a target tree.
struct Embedding {
  int fragment_index = -1;
  /// fragment occurrence -> target occurrence (injective).
  std::vector<int> node_map;
  /// Bitmask over the target tree's edge indexes covered by the fragment.
  uint32_t edge_mask = 0;
};

/// All embeddings of `frag` into `target`: injective node maps preserving
/// segments, TSS edge ids, and edge directions.
std::vector<Embedding> FindEmbeddings(const schema::TssTree& frag,
                                      const schema::TssTree& target,
                                      const schema::TssGraph& tss,
                                      int fragment_index);

/// Appends the edge mask of every embedding of `frag` into `target` to
/// `*masks`, in FindEmbeddings order, without building the node maps.
void AppendEmbeddingMasks(const schema::TssTree& frag,
                          const schema::TssTree& target,
                          const schema::TssGraph& tss,
                          std::vector<uint32_t>* masks);

/// A tiling of a target tree by fragment embeddings.
struct Tiling {
  std::vector<Embedding> pieces;

  /// Joins needed to evaluate the target with this tiling. Because the
  /// target is a tree and the pieces are subtrees covering all edges, any
  /// piece order in which each piece shares an occurrence with an earlier
  /// one exists; joins = pieces - 1.
  int joins() const {
    return pieces.empty() ? 0 : static_cast<int>(pieces.size()) - 1;
  }
};

/// Minimum-piece tiling of `target` by the given fragments, or nullopt when
/// some edge is covered by no fragment. A size-0 target needs no pieces.
std::optional<Tiling> MinJoinTiling(const schema::TssTree& target,
                                    const schema::TssGraph& tss,
                                    const std::vector<Fragment>& fragments);

/// True if `target` can be evaluated with at most `max_joins` joins.
bool Covered(const schema::TssTree& target, const schema::TssGraph& tss,
             const std::vector<Fragment>& fragments, int max_joins);

}  // namespace xk::decomp

#endif  // XK_DECOMP_COVERAGE_H_
