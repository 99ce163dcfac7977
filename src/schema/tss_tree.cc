#include "schema/tss_tree.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace xk::schema {

std::vector<std::vector<int>> TssTree::Adjacency() const {
  std::vector<std::vector<int>> adj(nodes.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    adj[static_cast<size_t>(edges[e].from)].push_back(static_cast<int>(e));
    adj[static_cast<size_t>(edges[e].to)].push_back(static_cast<int>(e));
  }
  return adj;
}

Status TssTree::Validate(const TssGraph& tss) const {
  if (nodes.empty()) return Status::InvalidArgument("empty tree");
  if (edges.size() != nodes.size() - 1) {
    return Status::InvalidArgument(
        StrFormat("tree shape: %zu nodes, %zu edges", nodes.size(), edges.size()));
  }
  for (TssId t : nodes) {
    if (t < 0 || t >= tss.NumSegments()) return Status::OutOfRange("bad segment id");
  }
  for (const TssTreeEdge& e : edges) {
    if (e.from < 0 || e.from >= num_nodes() || e.to < 0 || e.to >= num_nodes() ||
        e.from == e.to) {
      return Status::OutOfRange("bad edge endpoints");
    }
    if (e.tss_edge < 0 || e.tss_edge >= tss.NumEdges()) {
      return Status::OutOfRange("bad TSS edge id");
    }
    const TssEdge& te = tss.edge(e.tss_edge);
    if (nodes[static_cast<size_t>(e.from)] != te.from ||
        nodes[static_cast<size_t>(e.to)] != te.to) {
      return Status::InvalidArgument(
          StrFormat("edge %d does not instantiate TSS edge %d endpoints", e.from,
                    e.tss_edge));
    }
  }
  // Connectivity.
  std::vector<bool> seen(nodes.size(), false);
  std::vector<int> stack = {0};
  seen[0] = true;
  auto adj = Adjacency();
  size_t count = 1;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    for (int ei : adj[static_cast<size_t>(v)]) {
      int u = edges[static_cast<size_t>(ei)].from == v
                  ? edges[static_cast<size_t>(ei)].to
                  : edges[static_cast<size_t>(ei)].from;
      if (!seen[static_cast<size_t>(u)]) {
        seen[static_cast<size_t>(u)] = true;
        ++count;
        stack.push_back(u);
      }
    }
  }
  if (count != nodes.size()) return Status::InvalidArgument("tree not connected");
  return Status::OK();
}

std::string TssTree::ToString(const TssGraph& tss) const {
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += " ";
    out += StrFormat("%zu:%s", i, tss.name(nodes[i]).c_str());
  }
  for (const TssTreeEdge& e : edges) {
    out += StrFormat(" (%d-[%d]->%d)", e.from, e.tss_edge, e.to);
  }
  return out;
}

Mult OutwardMult(const TssTree& tree, const TssGraph& tss, int node,
                 int edge_index) {
  const TssTreeEdge& e = tree.edges[static_cast<size_t>(edge_index)];
  const TssEdge& te = tss.edge(e.tss_edge);
  XK_CHECK(e.from == node || e.to == node);
  return e.from == node ? te.forward_mult : te.reverse_mult;
}

size_t CanonicalCodeHash::operator()(const CanonicalCode& code) const {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ code.size();
  for (uint32_t t : code) {
    h ^= t;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return static_cast<size_t>(h);
}

void CanonicalEncoder::Encode(const TssTree& tree, CanonicalCode* code) {
  code->clear();
  const int n = tree.num_nodes();
  if (n == 0) return;
  adj_begin_.assign(static_cast<size_t>(n) + 1, 0);
  for (const TssTreeEdge& e : tree.edges) {
    ++adj_begin_[static_cast<size_t>(e.from) + 1];
    ++adj_begin_[static_cast<size_t>(e.to) + 1];
  }
  for (int v = 0; v < n; ++v) {
    adj_begin_[static_cast<size_t>(v) + 1] += adj_begin_[static_cast<size_t>(v)];
  }
  adj_.resize(2 * tree.edges.size());
  fill_ = adj_begin_;
  for (size_t ei = 0; ei < tree.edges.size(); ++ei) {
    const TssTreeEdge& e = tree.edges[ei];
    adj_[static_cast<size_t>(fill_[static_cast<size_t>(e.from)]++)] = static_cast<int>(ei);
    adj_[static_cast<size_t>(fill_[static_cast<size_t>(e.to)]++)] = static_cast<int>(ei);
  }

  FindCentres(tree);
  EncodeFrom(tree, layer_[0], -1, code);
  if (layer_.size() == 2) {
    alt_.clear();
    EncodeFrom(tree, layer_[1], -1, &alt_);
    if (alt_ < *code) code->swap(alt_);
  }
}

void CanonicalEncoder::FindCentres(const TssTree& tree) {
  const int n = tree.num_nodes();
  layer_.clear();
  if (n <= 2) {
    for (int v = 0; v < n; ++v) layer_.push_back(v);
    return;
  }
  peel_degree_.resize(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    const size_t u = static_cast<size_t>(v);
    peel_degree_[u] = adj_begin_[u + 1] - adj_begin_[u];
    if (peel_degree_[u] == 1) layer_.push_back(v);
  }
  // Strip the leaves layer by layer; the last one or two left are the
  // centres.
  int remaining = n;
  while (remaining > 2) {
    remaining -= static_cast<int>(layer_.size());
    next_layer_.clear();
    for (int leaf : layer_) {
      for (int k = adj_begin_[static_cast<size_t>(leaf)];
           k < adj_begin_[static_cast<size_t>(leaf) + 1]; ++k) {
        const TssTreeEdge& e = tree.edges[static_cast<size_t>(adj_[static_cast<size_t>(k)])];
        const int other = e.from == leaf ? e.to : e.from;
        if (--peel_degree_[static_cast<size_t>(other)] == 1) {
          next_layer_.push_back(other);
        }
      }
    }
    layer_.swap(next_layer_);
  }
}

void CanonicalEncoder::EncodeFrom(const TssTree& tree, int v, int via_edge,
                                  CanonicalCode* out) {
  out->push_back(static_cast<uint32_t>(tree.nodes[static_cast<size_t>(v)]));
  const size_t count_at = out->size();
  out->push_back(0);
  const size_t children_begin = out->size();
  const size_t base = segments_.size();
  for (int k = adj_begin_[static_cast<size_t>(v)];
       k < adj_begin_[static_cast<size_t>(v) + 1]; ++k) {
    const int ei = adj_[static_cast<size_t>(k)];
    if (ei == via_edge) continue;
    const TssTreeEdge& e = tree.edges[static_cast<size_t>(ei)];
    const bool v_is_source = e.from == v;
    const size_t begin = out->size();
    out->push_back(static_cast<uint32_t>(e.tss_edge) * 2 + (v_is_source ? 1 : 0));
    EncodeFrom(tree, v_is_source ? e.to : e.from, ei, out);
    segments_.emplace_back(begin, out->size());
  }
  const size_t children = segments_.size() - base;
  (*out)[count_at] = static_cast<uint32_t>(children);
  if (children >= 2) {
    const auto first = segments_.begin() + static_cast<ptrdiff_t>(base);
    std::sort(first, segments_.end(), [out](const auto& a, const auto& b) {
      return std::lexicographical_compare(
          out->begin() + static_cast<ptrdiff_t>(a.first),
          out->begin() + static_cast<ptrdiff_t>(a.second),
          out->begin() + static_cast<ptrdiff_t>(b.first),
          out->begin() + static_cast<ptrdiff_t>(b.second));
    });
    sorted_.clear();
    for (auto it = first; it != segments_.end(); ++it) {
      sorted_.insert(sorted_.end(), out->begin() + static_cast<ptrdiff_t>(it->first),
                     out->begin() + static_cast<ptrdiff_t>(it->second));
    }
    std::copy(sorted_.begin(), sorted_.end(),
              out->begin() + static_cast<ptrdiff_t>(children_begin));
  }
  segments_.resize(base);
}

CanonicalCode CanonicalKey(const TssTree& tree, const TssGraph& tss) {
  (void)tss;
  CanonicalEncoder encoder;
  CanonicalCode code;
  encoder.Encode(tree, &code);
  return code;
}

Impossibility CheckStructurallyPossible(const TssTree& tree, const TssGraph& tss) {
  auto adj = tree.Adjacency();
  for (int v = 0; v < tree.num_nodes(); ++v) {
    const std::vector<int>& inc = adj[static_cast<size_t>(v)];

    int containment_parents = 0;
    for (int ei : inc) {
      const TssTreeEdge& e = tree.edges[static_cast<size_t>(ei)];
      const TssEdge& te = tss.edge(e.tss_edge);
      if (e.to == v && te.kind == EdgeKind::kContainment) ++containment_parents;
    }
    if (containment_parents >= 2) return Impossibility::kTwoContainmentParents;

    for (size_t i = 0; i < inc.size(); ++i) {
      const TssTreeEdge& e1 = tree.edges[static_cast<size_t>(inc[i])];
      const TssEdge& te1 = tss.edge(e1.tss_edge);
      for (size_t j = i + 1; j < inc.size(); ++j) {
        const TssTreeEdge& e2 = tree.edges[static_cast<size_t>(inc[j])];
        const TssEdge& te2 = tss.edge(e2.tss_edge);

        // Choice conflict: two departures through one exclusively-owned
        // choice node.
        if (e1.from == v && e2.from == v &&
            te1.choice_group != kNoSchemaNode &&
            te1.choice_group == te2.choice_group &&
            te1.choice_prefix_mult == Mult::kOne &&
            te2.choice_prefix_mult == Mult::kOne) {
          return Impossibility::kChoiceConflict;
        }

        // To-one duplicates: two same-type, same-orientation neighbors
        // through an edge that admits exactly one neighbor on that side.
        if (e1.tss_edge == e2.tss_edge) {
          bool both_out = e1.from == v && e2.from == v;
          bool both_in = e1.to == v && e2.to == v;
          if (both_out && te1.forward_mult == Mult::kOne) {
            return Impossibility::kToOneDuplicate;
          }
          if (both_in && te1.reverse_mult == Mult::kOne) {
            return Impossibility::kToOneDuplicate;
          }
        }
      }
    }
  }
  return Impossibility::kNone;
}

}  // namespace xk::schema
