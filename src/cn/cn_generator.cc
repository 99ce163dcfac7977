#include "cn/cn_generator.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace xk::cn {

using schema::EdgeKind;
using schema::SchemaEdge;
using schema::SchemaEdgeId;
using schema::SchemaGraph;
using schema::SchemaNodeId;

bool CnStructurallyPossible(const CandidateNetwork& cn, const SchemaGraph& schema) {
  auto adj = cn.Adjacency();
  for (int v = 0; v < cn.num_nodes(); ++v) {
    const std::vector<int>& inc = adj[static_cast<size_t>(v)];
    SchemaNodeId sv = cn.nodes[static_cast<size_t>(v)].schema_node;

    int containment_parents = 0;
    std::unordered_set<schema::SchemaEdgeId> alternatives;
    for (int ei : inc) {
      const CnEdge& e = cn.edges[static_cast<size_t>(ei)];
      const SchemaEdge& se = schema.edge(e.edge);
      if (e.to == v && se.kind == EdgeKind::kContainment) ++containment_parents;
      // A choice instance picks one alternative among ALL its outgoing edges
      // (containment children or references, e.g. line -> part | product).
      if (e.from == v) alternatives.insert(e.edge);
    }
    // Rule: one containment parent per instance.
    if (containment_parents >= 2) return false;
    // Rule: a choice occurrence instantiates at most one alternative.
    if (schema.kind(sv) == schema::NodeKind::kChoice && alternatives.size() >= 2) {
      return false;
    }
    // Rule: to-one duplicate neighbors (generalized R^K <- S -> R^K).
    for (size_t i = 0; i < inc.size(); ++i) {
      const CnEdge& e1 = cn.edges[static_cast<size_t>(inc[i])];
      for (size_t j = i + 1; j < inc.size(); ++j) {
        const CnEdge& e2 = cn.edges[static_cast<size_t>(inc[j])];
        if (e1.edge != e2.edge) continue;
        const SchemaEdge& se = schema.edge(e1.edge);
        bool both_out = e1.from == v && e2.from == v;
        bool both_in = e1.to == v && e2.to == v;
        if (both_out && se.forward_mult() == schema::Mult::kOne) return false;
        if (both_in && se.reverse_mult() == schema::Mult::kOne) return false;
      }
    }
  }
  return true;
}

CnGenerator::CnGenerator(const SchemaGraph* schema, CnGeneratorOptions options)
    : schema_(schema), options_(options) {
  XK_CHECK(schema != nullptr);
}

namespace {

/// A set of query keywords: bit k stands for keyword k.
using KeywordMask = uint32_t;

/// The non-empty subsets of `set` in increasing numeric order: start from
/// 0, stop when it returns 0. Because keyword k is bit k, this is the order
/// a binary counter over `set`'s members (lowest keyword first) lists them.
KeywordMask NextSubset(KeywordMask sub, KeywordMask set) {
  return (sub - set) & set;
}

/// One partial network of the generation arena: the network of `parent`
/// (-1 for a seed) plus one fresh occurrence of `schema_node`, annotated with
/// `mask` and attached to occurrence `attach` along `edge`. The fresh
/// occurrence of a depth-i node is occurrence i of all its descendants, so
/// occurrences and edges come out in the order of a network grown by copying
/// its parent and appending.
struct ArenaNode {
  int32_t parent;
  int32_t attach;
  SchemaEdgeId edge;
  SchemaNodeId schema_node;
  KeywordMask mask;
  KeywordMask used;  // union of the annotations of the whole network
  int32_t num_nodes;
  bool fresh_is_source;
};

/// A partial network unpacked from the arena, plus the per-occurrence
/// summaries the pruning rules read when an extension touches it.
struct Network {
  std::vector<SchemaNodeId> node;
  std::vector<KeywordMask> mask;
  std::vector<CnEdge> edges;
  std::vector<int> degree;
  std::vector<int> containment_parents;
  /// The schema edge an occurrence's out-edges use, -1 when it has none.
  /// Only read for choice occurrences, whose out-edges share one edge.
  std::vector<SchemaEdgeId> alternative;
  /// Free occurrences of degree <= 1.
  int free_leaves = 0;

  int num_nodes() const { return static_cast<int>(node.size()); }
};

/// Canonical code of a network up to occurrence isomorphism, the integer
/// form of CandidateNetwork::CanonicalKey. A subtree encodes as
///   schema node, annotation mask, #children, (edge token, child code)...
/// with the (edge token, child code) pairs in lexicographic order. The code
/// is prefix-free, so equal codes mean isomorphic networks. The tree is
/// rooted at its centre, which is itself canonical; a bicentral tree takes
/// the smaller of its two rootings (AHU-style).
class CanonicalEncoder {
 public:
  void Encode(const Network& net, std::vector<uint32_t>* code) {
    const int n = net.num_nodes();
    adj_begin_.assign(static_cast<size_t>(n) + 1, 0);
    for (const CnEdge& e : net.edges) {
      ++adj_begin_[static_cast<size_t>(e.from) + 1];
      ++adj_begin_[static_cast<size_t>(e.to) + 1];
    }
    for (int v = 0; v < n; ++v) {
      adj_begin_[static_cast<size_t>(v) + 1] += adj_begin_[static_cast<size_t>(v)];
    }
    adj_.resize(2 * net.edges.size());
    fill_ = adj_begin_;
    for (size_t ei = 0; ei < net.edges.size(); ++ei) {
      const CnEdge& e = net.edges[ei];
      adj_[static_cast<size_t>(fill_[static_cast<size_t>(e.from)]++)] = static_cast<int>(ei);
      adj_[static_cast<size_t>(fill_[static_cast<size_t>(e.to)]++)] = static_cast<int>(ei);
    }

    FindCentres(net);
    code->clear();
    EncodeFrom(net, layer_[0], -1, code);
    if (layer_.size() == 2) {
      alt_.clear();
      EncodeFrom(net, layer_[1], -1, &alt_);
      if (alt_ < *code) code->swap(alt_);
    }
  }

 private:
  /// Leaves `layer_` holding the one or two centre occurrences.
  void FindCentres(const Network& net) {
    const int n = net.num_nodes();
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
          const CnEdge& e = net.edges[static_cast<size_t>(adj_[static_cast<size_t>(k)])];
          const int other = e.from == leaf ? e.to : e.from;
          if (--peel_degree_[static_cast<size_t>(other)] == 1) {
            next_layer_.push_back(other);
          }
        }
      }
      layer_.swap(next_layer_);
    }
  }

  void EncodeFrom(const Network& net, int v, int via_edge,
                  std::vector<uint32_t>* out) {
    out->push_back(static_cast<uint32_t>(net.node[static_cast<size_t>(v)]));
    out->push_back(net.mask[static_cast<size_t>(v)]);
    const size_t count_at = out->size();
    out->push_back(0);
    const size_t children_begin = out->size();
    const size_t base = segments_.size();
    for (int k = adj_begin_[static_cast<size_t>(v)];
         k < adj_begin_[static_cast<size_t>(v) + 1]; ++k) {
      const int ei = adj_[static_cast<size_t>(k)];
      if (ei == via_edge) continue;
      const CnEdge& e = net.edges[static_cast<size_t>(ei)];
      const bool v_is_source = e.from == v;
      const size_t begin = out->size();
      out->push_back(static_cast<uint32_t>(e.edge) * 2 + (v_is_source ? 1 : 0));
      EncodeFrom(net, v_is_source ? e.to : e.from, ei, out);
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

  std::vector<int> adj_begin_, fill_, adj_;  // CSR: edge indexes per occurrence
  std::vector<int> peel_degree_, layer_, next_layer_;
  std::vector<std::pair<size_t, size_t>> segments_;  // stack across the recursion
  std::vector<uint32_t> sorted_, alt_;
};

uint64_t HashCode(const std::vector<uint32_t>& code) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ code.size();
  for (uint32_t t : code) {
    h ^= t;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

/// The canonical codes of every partial network kept so far. Open addressing
/// on the code's 64-bit hash; a hash match is confirmed by comparing the
/// stored code exactly, so two different networks whose hashes collide are
/// both kept.
class SeenSet {
 public:
  /// Adds `code`; false when an equal code is already present.
  bool Insert(const std::vector<uint32_t>& code) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const uint64_t hash = HashCode(code);
    const size_t mask = slots_.size() - 1;
    for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.len == 0) {
        slot = Slot{hash, codes_.size(), code.size()};
        codes_.insert(codes_.end(), code.begin(), code.end());
        ++size_;
        return true;
      }
      if (slot.hash == hash && slot.len == code.size() &&
          std::equal(code.begin(), code.end(),
                     codes_.begin() + static_cast<ptrdiff_t>(slot.offset))) {
        return false;
      }
    }
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    size_t offset = 0;
    size_t len = 0;  // 0 = empty (codes are never empty)
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(64, old.size() * 2), Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.len == 0) continue;
      size_t i = static_cast<size_t>(slot.hash) & mask;
      while (slots_[i].len != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> codes_;
  size_t size_ = 0;
};

/// One run of CnGenerator::Generate: a breadth-first frontier over the arena,
/// one size level at a time.
class Generation {
 public:
  Generation(const SchemaGraph* schema, const CnGeneratorOptions& options,
             std::vector<KeywordMask> avail, KeywordMask all)
      : schema_(schema), options_(options), avail_(std::move(avail)), all_(all) {}

  Result<std::vector<CandidateNetwork>> Run() {
    Seed();
    // The copy-per-extension generator checked the bound at the end of each
    // size level, seeds included; failing as soon as it is crossed returns
    // the same status.
    if (options_.max_size >= 1 && seen_.size() > options_.max_networks) {
      return Exhausted();
    }
    size_t level_begin = 0;
    for (int size = 1; size <= options_.max_size; ++size) {
      const size_t level_end = arena_.size();
      for (size_t id = level_begin; id < level_end; ++id) {
        if (!Expand(static_cast<int32_t>(id))) return stop_;
      }
      level_begin = level_end;
      if (level_begin == arena_.size()) break;
    }
    // Accepted in level order, so already in nondecreasing size order.
    std::vector<CandidateNetwork> out;
    out.reserve(accepted_.size());
    for (int32_t id : accepted_) {
      Load(id);
      CandidateNetwork cn;
      cn.nodes.reserve(net_.node.size());
      for (size_t v = 0; v < net_.node.size(); ++v) {
        CnNode node{net_.node[v], {}};
        for (KeywordMask m = net_.mask[v]; m != 0; m &= m - 1) {
          node.keywords.push_back(std::countr_zero(m));
        }
        cn.nodes.push_back(std::move(node));
      }
      cn.edges = net_.edges;
      out.push_back(std::move(cn));
    }
    return out;
  }

 private:
  Status Exhausted() const {
    return Status::ResourceExhausted(
        StrFormat("CN generation exceeded %zu networks", options_.max_networks));
  }

  /// Single occurrences with a non-empty annotation.
  void Seed() {
    net_.edges.clear();
    for (SchemaNodeId s = 0; s < schema_->NumNodes(); ++s) {
      const KeywordMask set = avail_[static_cast<size_t>(s)];
      for (KeywordMask sub = NextSubset(0, set); sub != 0;
           sub = NextSubset(sub, set)) {
        net_.node.assign(1, s);
        net_.mask.assign(1, sub);
        encoder_.Encode(net_, &code_);
        if (!seen_.Insert(code_)) continue;
        arena_.push_back(ArenaNode{-1, -1, -1, s, sub, sub, 1, false});
        if (sub == all_) accepted_.push_back(static_cast<int32_t>(arena_.size() - 1));
      }
    }
  }

  /// Unpacks the occurrences and edges of arena node `id` into net_.
  void Load(int32_t id) {
    const size_t n = static_cast<size_t>(arena_[static_cast<size_t>(id)].num_nodes);
    net_.node.resize(n);
    net_.mask.resize(n);
    net_.edges.resize(n - 1);
    int v = static_cast<int>(n) - 1;
    for (int32_t i = id; i >= 0; i = arena_[static_cast<size_t>(i)].parent, --v) {
      const ArenaNode& a = arena_[static_cast<size_t>(i)];
      net_.node[static_cast<size_t>(v)] = a.schema_node;
      net_.mask[static_cast<size_t>(v)] = a.mask;
      if (v > 0) {
        net_.edges[static_cast<size_t>(v) - 1] =
            a.fresh_is_source ? CnEdge{v, a.attach, a.edge} : CnEdge{a.attach, v, a.edge};
      }
    }
  }

  /// Load plus the per-occurrence summaries.
  void Unpack(int32_t id) {
    Load(id);
    const size_t n = net_.node.size();
    net_.degree.assign(n, 0);
    net_.containment_parents.assign(n, 0);
    net_.alternative.assign(n, -1);
    for (const CnEdge& e : net_.edges) {
      ++net_.degree[static_cast<size_t>(e.from)];
      ++net_.degree[static_cast<size_t>(e.to)];
      if (schema_->edge(e.edge).kind == EdgeKind::kContainment) {
        ++net_.containment_parents[static_cast<size_t>(e.to)];
      }
      net_.alternative[static_cast<size_t>(e.from)] = e.edge;
    }
    net_.free_leaves = 0;
    for (size_t v = 0; v < n; ++v) {
      if (net_.degree[v] <= 1 && net_.mask[v] == 0) ++net_.free_leaves;
    }
  }

  /// Does occurrence v already have an out-edge along `e`?
  bool HasOutEdge(int v, SchemaEdgeId e) const {
    for (const CnEdge& edge : net_.edges) {
      if (edge.edge == e && edge.from == v) return true;
    }
    return false;
  }

  /// The three pruning rules of CnStructurallyPossible, checked only at v:
  /// the fresh occurrence has a single edge and every other occurrence is
  /// untouched, so the extended network passes iff v still does.
  bool CanAttach(int v, SchemaEdgeId e, bool v_is_source) const {
    const size_t u = static_cast<size_t>(v);
    const SchemaEdge& se = schema_->edge(e);
    if (v_is_source) {
      // A choice occurrence instantiates at most one alternative.
      if (schema_->kind(net_.node[u]) == schema::NodeKind::kChoice &&
          net_.alternative[u] != -1 && net_.alternative[u] != e) {
        return false;
      }
      return se.forward_mult() != schema::Mult::kOne || !HasOutEdge(v, e);
    }
    // One containment parent per instance. Only containment edges are
    // to-one walked backwards, so this also covers the to-one rule for v's
    // in-edges.
    return se.kind != EdgeKind::kContainment || net_.containment_parents[u] == 0;
  }

  /// Extends partial `id` at every occurrence along every incident schema
  /// edge, in both directions. False when the generation must stop (stop_).
  bool Expand(int32_t id) {
    // Fully-annotated networks cannot gain further non-free leaves; every
    // extension would leave a free leaf forever, so prune.
    if (arena_[static_cast<size_t>(id)].used == all_) return true;
    Unpack(id);
    for (int v = 0; v < net_.num_nodes(); ++v) {
      const SchemaNodeId sv = net_.node[static_cast<size_t>(v)];
      for (SchemaEdgeId e : schema_->out_edges(sv)) {
        if (!Attach(id, v, e, true)) return false;
      }
      for (SchemaEdgeId e : schema_->in_edges(sv)) {
        if (!Attach(id, v, e, false)) return false;
      }
    }
    return true;
  }

  /// Tries a fresh occurrence at v along `e`: free first, then every
  /// subset of the unused keywords its schema node can hold.
  bool Attach(int32_t id, int v, SchemaEdgeId e, bool v_is_source) {
    if (!CanAttach(v, e, v_is_source)) return true;
    const SchemaEdge& se = schema_->edge(e);
    const SchemaNodeId other = v_is_source ? se.to : se.from;
    const size_t u = static_cast<size_t>(v);
    // A free leaf v stops being a leaf once it has two edges.
    const int free_leaves =
        net_.free_leaves - (net_.mask[u] == 0 && net_.degree[u] == 1 ? 1 : 0);
    const KeywordMask used = arena_[static_cast<size_t>(id)].used;
    const CnEdge edge = v_is_source ? CnEdge{v, net_.num_nodes(), e}
                                    : CnEdge{net_.num_nodes(), v, e};
    if (!Try(id, edge, other, 0, used, free_leaves + 1)) return false;
    const KeywordMask open = avail_[static_cast<size_t>(other)] & ~used;
    for (KeywordMask ann = NextSubset(0, open); ann != 0; ann = NextSubset(ann, open)) {
      if (!Try(id, edge, other, ann, used | ann, free_leaves)) return false;
    }
    return true;
  }

  /// One extension: the network of `id` plus a fresh occurrence of `other`
  /// annotated `ann` along `edge`. `used` and `free_leaves` describe the
  /// extended network.
  bool Try(int32_t id, const CnEdge& edge, SchemaNodeId other, KeywordMask ann,
           KeywordMask used, int free_leaves) {
    if ((++extensions_ & 255) == 0 && options_.cancel != nullptr &&
        options_.cancel->StopRequested()) {
      stop_ = options_.cancel->ToStatus();
      return false;
    }
    // Lower-bound feasibility: every free leaf must eventually become
    // internal (>= 1 extra edge each) and every chain it starts must end in
    // an occurrence carrying an unused keyword.
    if (free_leaves > std::popcount(all_ & ~used)) return true;
    const int n = net_.num_nodes();  // edges of the extended network
    if (n + free_leaves > options_.max_size) return true;

    net_.node.push_back(other);
    net_.mask.push_back(ann);
    net_.edges.push_back(edge);
    encoder_.Encode(net_, &code_);
    net_.node.pop_back();
    net_.mask.pop_back();
    net_.edges.pop_back();
    if (!seen_.Insert(code_)) return true;
    if (seen_.size() > options_.max_networks) {
      stop_ = Exhausted();
      return false;
    }
    const bool fresh_is_source = edge.from == n;
    const int attach = fresh_is_source ? edge.to : edge.from;
    arena_.push_back(
        ArenaNode{id, attach, edge.edge, other, ann, used, n + 1, fresh_is_source});
    // Total and minimal (every leaf non-free).
    if (used == all_ && free_leaves == 0) {
      accepted_.push_back(static_cast<int32_t>(arena_.size() - 1));
    }
    return true;
  }

  const SchemaGraph* schema_;
  const CnGeneratorOptions& options_;
  const std::vector<KeywordMask> avail_;  // keywords each schema node can hold
  const KeywordMask all_;

  std::vector<ArenaNode> arena_;
  std::vector<int32_t> accepted_;
  SeenSet seen_;
  CanonicalEncoder encoder_;
  Network net_;
  std::vector<uint32_t> code_;
  uint64_t extensions_ = 0;
  Status stop_;
};

}  // namespace

Result<std::vector<CandidateNetwork>> CnGenerator::Generate(
    const std::vector<std::vector<SchemaNodeId>>& keyword_schema_nodes) const {
  const int m = static_cast<int>(keyword_schema_nodes.size());
  if (m == 0) return Status::InvalidArgument("no keywords");
  if (m > kMaxKeywords) {
    return Status::InvalidArgument(
        StrFormat("%d keywords; at most %d are supported", m, kMaxKeywords));
  }

  std::vector<KeywordMask> avail(static_cast<size_t>(schema_->NumNodes()), 0);
  for (int k = 0; k < m; ++k) {
    for (SchemaNodeId s : keyword_schema_nodes[static_cast<size_t>(k)]) {
      if (!schema_->ValidNode(s)) return Status::OutOfRange("bad schema node");
      avail[static_cast<size_t>(s)] |= KeywordMask{1} << k;
    }
    if (keyword_schema_nodes[static_cast<size_t>(k)].empty()) {
      // A keyword contained nowhere: no CN can be total.
      return std::vector<CandidateNetwork>{};
    }
  }
  const KeywordMask all = m == kMaxKeywords ? ~KeywordMask{0}
                                            : (KeywordMask{1} << m) - 1;
  return Generation(schema_, options_, std::move(avail), all).Run();
}

}  // namespace xk::cn
