#include "decomp/enumerate.h"

#include <unordered_set>

#include "common/strings.h"

namespace xk::decomp {

using schema::TssEdge;
using schema::TssGraph;
using schema::TssTree;
using schema::TssTreeEdge;

Result<std::vector<TssTree>> EnumerateTrees(const TssGraph& tss,
                                            const EnumerateOptions& options) {
  std::vector<TssTree> out;
  std::unordered_set<schema::CanonicalCode, schema::CanonicalCodeHash> seen;
  std::vector<TssTree> frontier;
  schema::CanonicalEncoder encoder;
  schema::CanonicalCode code;

  // Size-0 seeds: one occurrence per segment.
  for (schema::TssId t = 0; t < tss.NumSegments(); ++t) {
    TssTree tree;
    tree.nodes = {t};
    frontier.push_back(tree);
    encoder.Encode(tree, &code);
    seen.insert(code);
    if (options.include_empty) out.push_back(frontier.back());
  }

  for (int size = 1; size <= options.max_size; ++size) {
    std::vector<TssTree> next;
    for (const TssTree& tree : frontier) {
      for (int v = 0; v < tree.num_nodes(); ++v) {
        schema::TssId seg = tree.nodes[static_cast<size_t>(v)];
        for (schema::TssEdgeId e : tss.incident_edges(seg)) {
          const TssEdge& te = tss.edge(e);
          // Attach a new occurrence on either side of the TSS edge.
          for (int as_source = 0; as_source < 2; ++as_source) {
            bool v_is_source = as_source == 1;
            if (v_is_source && te.from != seg) continue;
            if (!v_is_source && te.to != seg) continue;
            TssTree grown = tree;
            int fresh = grown.num_nodes();
            grown.nodes.push_back(v_is_source ? te.to : te.from);
            grown.edges.push_back(v_is_source ? TssTreeEdge{v, fresh, e}
                                              : TssTreeEdge{fresh, v, e});
            if (options.skip_impossible &&
                !schema::IsStructurallyPossible(grown, tss)) {
              continue;
            }
            encoder.Encode(grown, &code);
            if (!seen.insert(code).second) continue;
            if (seen.size() > options.max_trees) {
              return Status::ResourceExhausted(
                  StrFormat("tree enumeration exceeded %zu trees",
                            options.max_trees));
            }
            next.push_back(std::move(grown));
          }
        }
      }
    }
    out.insert(out.end(), next.begin(), next.end());
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return out;
}

}  // namespace xk::decomp
