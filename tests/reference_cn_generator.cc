#include "reference_cn_generator.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "common/strings.h"

namespace xk::testing {

using cn::CandidateNetwork;
using cn::CnEdge;
using cn::CnNode;
using cn::CnStructurallyPossible;
using schema::SchemaEdge;
using schema::SchemaGraph;
using schema::SchemaNodeId;

namespace {

/// Non-empty subsets of `available` that avoid `used`, as sorted vectors.
std::vector<std::vector<int>> KeywordSubsets(const std::vector<int>& available,
                                             const std::vector<bool>& used) {
  std::vector<int> candidates;
  for (int k : available) {
    if (!used[static_cast<size_t>(k)]) candidates.push_back(k);
  }
  std::vector<std::vector<int>> out;
  const size_t n = candidates.size();
  for (size_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<int> subset;
    for (size_t b = 0; b < n; ++b) {
      if (mask & (1u << b)) subset.push_back(candidates[b]);
    }
    out.push_back(std::move(subset));
  }
  return out;
}

struct Partial {
  CandidateNetwork cn;
  std::vector<bool> used;  // per query keyword
};

/// Lower-bound feasibility: every free leaf must eventually become internal
/// (>= 1 extra edge each) and every chain it starts must end in a node
/// carrying an unused keyword. Prunes the bulk of the partial-tree frontier.
bool CanStillComplete(const Partial& p, int max_size) {
  std::vector<int> degree(p.cn.nodes.size(), 0);
  for (const CnEdge& e : p.cn.edges) {
    ++degree[static_cast<size_t>(e.from)];
    ++degree[static_cast<size_t>(e.to)];
  }
  int free_leaves = 0;
  for (size_t v = 0; v < p.cn.nodes.size(); ++v) {
    if (degree[v] <= 1 && p.cn.nodes[v].free()) ++free_leaves;
  }
  // Single free node counts as a free leaf too (degree 0).
  int unused = 0;
  for (bool u : p.used) {
    if (!u) ++unused;
  }
  if (free_leaves > unused) return false;
  return p.cn.size() + free_leaves <= max_size;
}

}  // namespace

Result<std::vector<CandidateNetwork>> ReferenceGenerateCns(
    const SchemaGraph& schema_graph, const cn::CnGeneratorOptions& options,
    const std::vector<std::vector<SchemaNodeId>>& keyword_schema_nodes) {
  const SchemaGraph* schema_ = &schema_graph;
  const cn::CnGeneratorOptions& options_ = options;
  const int m = static_cast<int>(keyword_schema_nodes.size());
  if (m == 0) return Status::InvalidArgument("no keywords");

  // avail[s] = keyword indexes that can live on schema node s.
  std::vector<std::vector<int>> avail(static_cast<size_t>(schema_->NumNodes()));
  for (int k = 0; k < m; ++k) {
    for (SchemaNodeId s : keyword_schema_nodes[static_cast<size_t>(k)]) {
      if (!schema_->ValidNode(s)) return Status::OutOfRange("bad schema node");
      avail[static_cast<size_t>(s)].push_back(k);
    }
    if (keyword_schema_nodes[static_cast<size_t>(k)].empty()) {
      // A keyword contained nowhere: no CN can be total.
      return std::vector<CandidateNetwork>{};
    }
  }

  std::vector<CandidateNetwork> accepted;
  std::unordered_set<std::string> seen;
  std::vector<Partial> frontier;

  auto try_accept = [&](const Partial& p) {
    // Total?
    for (int k = 0; k < m; ++k) {
      if (!p.used[static_cast<size_t>(k)]) return;
    }
    // Minimal: every leaf non-free.
    auto adj = p.cn.Adjacency();
    for (int v = 0; v < p.cn.num_nodes(); ++v) {
      if (adj[static_cast<size_t>(v)].size() <= 1 &&
          p.cn.nodes[static_cast<size_t>(v)].free()) {
        return;
      }
    }
    accepted.push_back(p.cn);
  };

  // Seeds: single occurrences with a non-empty annotation.
  std::vector<bool> no_used(static_cast<size_t>(m), false);
  for (SchemaNodeId s = 0; s < schema_->NumNodes(); ++s) {
    for (std::vector<int>& subset : KeywordSubsets(avail[static_cast<size_t>(s)],
                                                   no_used)) {
      Partial p;
      p.cn.nodes.push_back(CnNode{s, subset});
      p.used.assign(static_cast<size_t>(m), false);
      for (int k : subset) p.used[static_cast<size_t>(k)] = true;
      if (!seen.insert(p.cn.CanonicalKey()).second) continue;
      try_accept(p);
      frontier.push_back(std::move(p));
    }
  }

  for (int size = 1; size <= options_.max_size; ++size) {
    std::vector<Partial> next;
    for (const Partial& p : frontier) {
      // Fully-annotated networks cannot gain further non-free leaves; every
      // extension would leave a free leaf forever, so prune.
      bool all_used = std::all_of(p.used.begin(), p.used.end(),
                                  [](bool b) { return b; });
      if (all_used) continue;

      for (int v = 0; v < p.cn.num_nodes(); ++v) {
        SchemaNodeId sv = p.cn.nodes[static_cast<size_t>(v)].schema_node;
        // Expand along every incident schema edge, in both directions.
        auto expand = [&](schema::SchemaEdgeId e, bool v_is_source) {
          const SchemaEdge& se = schema_->edge(e);
          SchemaNodeId other = v_is_source ? se.to : se.from;
          // The fresh occurrence is free or annotated.
          std::vector<std::vector<int>> annotations = {{}};
          for (std::vector<int>& subset :
               KeywordSubsets(avail[static_cast<size_t>(other)], p.used)) {
            annotations.push_back(std::move(subset));
          }
          for (std::vector<int>& ann : annotations) {
            Partial grown = p;
            int fresh = grown.cn.num_nodes();
            grown.cn.nodes.push_back(CnNode{other, ann});
            grown.cn.edges.push_back(v_is_source ? CnEdge{v, fresh, e}
                                                 : CnEdge{fresh, v, e});
            for (int k : ann) grown.used[static_cast<size_t>(k)] = true;
            if (!CnStructurallyPossible(grown.cn, *schema_)) continue;
            if (!CanStillComplete(grown, options_.max_size)) continue;
            if (!seen.insert(grown.cn.CanonicalKey()).second) continue;
            if (seen.size() > options_.max_networks) continue;
            try_accept(grown);
            next.push_back(std::move(grown));
          }
        };
        for (schema::SchemaEdgeId e : schema_->out_edges(sv)) expand(e, true);
        for (schema::SchemaEdgeId e : schema_->in_edges(sv)) expand(e, false);
      }
    }
    if (seen.size() > options_.max_networks) {
      return Status::ResourceExhausted(
          StrFormat("CN generation exceeded %zu networks", options_.max_networks));
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }

  std::stable_sort(accepted.begin(), accepted.end(),
                   [](const CandidateNetwork& a, const CandidateNetwork& b) {
                     return a.size() < b.size();
                   });
  return accepted;
}

}  // namespace xk::testing
