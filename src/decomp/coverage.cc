#include "decomp/coverage.h"

#include <algorithm>

#include "common/logging.h"

namespace xk::decomp {

using schema::TssGraph;
using schema::TssTree;
using schema::TssTreeEdge;

namespace {

/// True when `target` has at least as many edges of every TSS edge id as
/// `frag`, which every embedding needs (it maps edges injectively and keeps
/// their ids). Rejects most non-embedding pairs before any matching.
bool EdgeCountsFit(const TssTree& frag, const TssTree& target) {
  for (size_t i = 0; i < frag.edges.size(); ++i) {
    const schema::TssEdgeId id = frag.edges[i].tss_edge;
    bool first = true;
    for (size_t j = 0; j < i && first; ++j) first = frag.edges[j].tss_edge != id;
    if (!first) continue;
    int need = 0;
    for (const TssTreeEdge& e : frag.edges) need += e.tss_edge == id ? 1 : 0;
    for (const TssTreeEdge& e : target.edges) need -= e.tss_edge == id ? 1 : 0;
    if (need > 0) return false;
  }
  return true;
}

/// Backtracking matcher. Fragment edges are processed in a DFS order from
/// occurrence 0 so each edge always has one endpoint already mapped.
class Matcher {
 public:
  /// With `masks` set, Run() only appends each embedding's edge mask there
  /// and returns nothing.
  Matcher(const TssTree& frag, const TssTree& target, int fragment_index,
          std::vector<uint32_t>* masks = nullptr)
      : frag_(frag), target_(target), fragment_index_(fragment_index),
        masks_(masks) {
    // DFS edge order from occurrence 0.
    auto adj = frag_.Adjacency();
    std::vector<bool> node_seen(frag_.nodes.size(), false);
    std::vector<int> stack = {0};
    node_seen[0] = true;
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      for (int ei : adj[static_cast<size_t>(v)]) {
        const TssTreeEdge& e = frag_.edges[static_cast<size_t>(ei)];
        int u = e.from == v ? e.to : e.from;
        if (node_seen[static_cast<size_t>(u)]) continue;
        node_seen[static_cast<size_t>(u)] = true;
        edge_order_.push_back(ei);
        stack.push_back(u);
      }
    }
    target_adj_ = target_.Adjacency();
  }

  std::vector<Embedding> Run() {
    node_map_.assign(frag_.nodes.size(), -1);
    used_.assign(target_.nodes.size(), false);
    for (int c = 0; c < target_.num_nodes(); ++c) {
      if (target_.nodes[static_cast<size_t>(c)] != frag_.nodes[0]) continue;
      node_map_[0] = c;
      used_[static_cast<size_t>(c)] = true;
      Extend(0, 0);
      used_[static_cast<size_t>(c)] = false;
      node_map_[0] = -1;
    }
    return std::move(results_);
  }

 private:
  void Extend(size_t edge_pos, uint32_t mask) {
    if (edge_pos == edge_order_.size()) {
      if (masks_ != nullptr) {
        masks_->push_back(mask);
      } else {
        results_.push_back(Embedding{fragment_index_, node_map_, mask});
      }
      return;
    }
    const TssTreeEdge& fe = frag_.edges[static_cast<size_t>(edge_order_[edge_pos])];
    // Exactly one endpoint is mapped (DFS order guarantees it).
    bool from_mapped = node_map_[static_cast<size_t>(fe.from)] != -1;
    int mapped_frag = from_mapped ? fe.from : fe.to;
    int free_frag = from_mapped ? fe.to : fe.from;
    int anchor = node_map_[static_cast<size_t>(mapped_frag)];

    for (int tei : target_adj_[static_cast<size_t>(anchor)]) {
      const TssTreeEdge& te = target_.edges[static_cast<size_t>(tei)];
      if (te.tss_edge != fe.tss_edge) continue;
      // Orientation must match: the mapped endpoint must play the same role.
      int target_free;
      if (from_mapped) {
        if (te.from != anchor) continue;
        target_free = te.to;
      } else {
        if (te.to != anchor) continue;
        target_free = te.from;
      }
      if (used_[static_cast<size_t>(target_free)]) continue;
      if (target_.nodes[static_cast<size_t>(target_free)] !=
          frag_.nodes[static_cast<size_t>(free_frag)]) {
        continue;
      }
      node_map_[static_cast<size_t>(free_frag)] = target_free;
      used_[static_cast<size_t>(target_free)] = true;
      Extend(edge_pos + 1, mask | (1u << tei));
      used_[static_cast<size_t>(target_free)] = false;
      node_map_[static_cast<size_t>(free_frag)] = -1;
    }
  }

  const TssTree& frag_;
  const TssTree& target_;
  int fragment_index_;
  std::vector<uint32_t>* masks_;
  std::vector<int> edge_order_;
  std::vector<std::vector<int>> target_adj_;
  std::vector<int> node_map_;
  std::vector<bool> used_;
  std::vector<Embedding> results_;
};

}  // namespace

std::vector<Embedding> FindEmbeddings(const TssTree& frag, const TssTree& target,
                                      const TssGraph& tss, int fragment_index) {
  (void)tss;
  if (frag.size() > target.size() || !EdgeCountsFit(frag, target)) return {};
  return Matcher(frag, target, fragment_index).Run();
}

void AppendEmbeddingMasks(const TssTree& frag, const TssTree& target,
                          const TssGraph& tss, std::vector<uint32_t>* masks) {
  (void)tss;
  if (frag.size() > target.size() || !EdgeCountsFit(frag, target)) return;
  Matcher(frag, target, 0, masks).Run();
}

std::optional<Tiling> MinJoinTiling(const TssTree& target, const TssGraph& tss,
                                    const std::vector<Fragment>& fragments) {
  if (target.size() == 0) return Tiling{};
  XK_CHECK_LE(target.size(), 30);

  std::vector<Embedding> embeddings;
  for (size_t f = 0; f < fragments.size(); ++f) {
    std::vector<Embedding> found =
        FindEmbeddings(fragments[f].tree, target, tss, static_cast<int>(f));
    embeddings.insert(embeddings.end(), found.begin(), found.end());
  }
  if (embeddings.empty()) return std::nullopt;

  const uint32_t full = (1u << target.size()) - 1;
  constexpr int kInf = 1 << 29;
  std::vector<int> dist(full + 1, kInf);
  std::vector<std::pair<int, uint32_t>> parent(full + 1, {-1, 0});
  dist[0] = 0;
  for (uint32_t mask = 0; mask <= full; ++mask) {
    if (dist[mask] == kInf) continue;
    if (mask == full) break;
    for (size_t i = 0; i < embeddings.size(); ++i) {
      uint32_t next = mask | embeddings[i].edge_mask;
      if (next == mask) continue;
      if (dist[mask] + 1 < dist[next]) {
        dist[next] = dist[mask] + 1;
        parent[next] = {static_cast<int>(i), mask};
      }
    }
  }
  if (dist[full] == kInf) return std::nullopt;

  Tiling tiling;
  uint32_t cur = full;
  while (cur != 0) {
    auto [emb, prev] = parent[cur];
    tiling.pieces.push_back(embeddings[static_cast<size_t>(emb)]);
    cur = prev;
  }
  std::reverse(tiling.pieces.begin(), tiling.pieces.end());
  return tiling;
}

bool Covered(const TssTree& target, const TssGraph& tss,
             const std::vector<Fragment>& fragments, int max_joins) {
  std::optional<Tiling> tiling = MinJoinTiling(target, tss, fragments);
  return tiling.has_value() && tiling->joins() <= max_joins;
}

}  // namespace xk::decomp
