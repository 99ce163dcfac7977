#include "decomp/relation_builder.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"

namespace xk::decomp {

using schema::TargetObjectGraph;
using schema::TssGraph;
using schema::TssTree;
using schema::TssTreeEdge;

std::string RelationName(const Decomposition& d, const Fragment& f) {
  return d.name + "." + f.name;
}

void ForEachInstance(
    const TssTree& tree, const TargetObjectGraph& objects,
    const std::function<void(const std::vector<storage::ObjectId>&)>& fn) {
  // DFS edge order from occurrence 0, so that the edge at each depth has
  // exactly one endpoint bound by the depths before it.
  struct Step {
    int bound_occ;  // bound by an earlier depth
    int free_occ;   // bound here
    bool forward;   // bound_occ plays the source role of the TSS edge
    schema::TssEdgeId tss_edge;
  };
  std::vector<Step> steps;
  {
    auto adj = tree.Adjacency();
    std::vector<bool> seen(tree.nodes.size(), false);
    std::vector<int> stack = {0};
    seen[0] = true;
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      for (int ei : adj[static_cast<size_t>(v)]) {
        const TssTreeEdge& e = tree.edges[static_cast<size_t>(ei)];
        int u = e.from == v ? e.to : e.from;
        if (seen[static_cast<size_t>(u)]) continue;
        seen[static_cast<size_t>(u)] = true;
        steps.push_back(Step{v, u, e.from == v, e.tss_edge});
        stack.push_back(u);
      }
    }
  }

  // Iterative backtracking: depth `pos` walks the neighbours of its bound
  // occurrence's object, cursor[pos] being the next one to try.
  const size_t depth = steps.size();
  std::vector<storage::ObjectId> binding(tree.nodes.size(), storage::kInvalidId);
  std::vector<const std::vector<storage::ObjectId>*> neighbors(depth);
  std::vector<size_t> cursor(depth);
  auto enter = [&](size_t pos) {
    const Step& s = steps[pos];
    const storage::ObjectId anchor = binding[static_cast<size_t>(s.bound_occ)];
    neighbors[pos] = s.forward ? &objects.Forward(anchor, s.tss_edge)
                               : &objects.Reverse(anchor, s.tss_edge);
    cursor[pos] = 0;
  };

  for (storage::ObjectId o : objects.ObjectsOfSegment(tree.nodes[0])) {
    binding[0] = o;
    if (depth == 0) {
      fn(binding);
      continue;
    }
    size_t pos = 0;
    enter(0);
    while (true) {
      const Step& s = steps[pos];
      storage::ObjectId& slot = binding[static_cast<size_t>(s.free_occ)];
      slot = storage::kInvalidId;
      if (cursor[pos] == neighbors[pos]->size()) {
        if (pos == 0) break;
        --pos;
        continue;
      }
      const storage::ObjectId next = (*neighbors[pos])[cursor[pos]++];
      // Injectivity: occurrences bind distinct objects.
      if (std::find(binding.begin(), binding.end(), next) != binding.end()) continue;
      slot = next;
      if (pos + 1 == depth) {
        fn(binding);
      } else {
        ++pos;
        enter(pos);
      }
    }
  }
}

Result<std::vector<PendingRelation>> CreateConnectionTables(
    const Decomposition& d, const TssGraph& tss, storage::Catalog* catalog) {
  std::vector<PendingRelation> pending;
  for (const Fragment& f : d.fragments) {
    const std::string rel_name = RelationName(d, f);
    if (catalog->HasTable(rel_name)) continue;
    std::vector<std::string> columns;
    for (int i = 0; i < f.tree.num_nodes(); ++i) {
      columns.push_back(f.ColumnName(tss, i));
    }
    XK_ASSIGN_OR_RETURN(storage::Table * table,
                        catalog->CreateTable(rel_name, std::move(columns)));
    pending.push_back(PendingRelation{&f, table});
  }
  return pending;
}

Status FillConnectionRelation(const Fragment& f, PhysicalDesign physical,
                              const TargetObjectGraph& objects,
                              storage::Table* table) {
  Status appended;
  ForEachInstance(f.tree, objects, [&](const std::vector<storage::ObjectId>& row) {
    if (appended.ok()) appended = table->Append(storage::TupleView(row));
  });
  XK_RETURN_NOT_OK(appended);

  switch (physical) {
    case PhysicalDesign::kClusterPerDirection: {
      // Physical order on the column-0 direction; an index-organized
      // duplicate (composite index) per further direction.
      std::vector<int> key(static_cast<size_t>(table->arity()));
      std::iota(key.begin(), key.end(), 0);
      XK_RETURN_NOT_OK(table->Cluster(key));
      for (int lead = 1; lead < table->arity(); ++lead) {
        std::vector<int> order;
        order.push_back(lead);
        for (int c = 0; c < table->arity(); ++c) {
          if (c != lead) order.push_back(c);
        }
        XK_RETURN_NOT_OK(table->BuildCompositeIndex(order));
      }
      break;
    }
    case PhysicalDesign::kHashIndexPerColumn: {
      for (int c = 0; c < table->arity(); ++c) {
        XK_RETURN_NOT_OK(table->BuildHashIndex(c));
      }
      break;
    }
    case PhysicalDesign::kNone:
      break;
  }
  table->Freeze();
  return Status::OK();
}

Status BuildConnectionRelations(const Decomposition& d,
                                const TargetObjectGraph& objects,
                                const TssGraph& tss, storage::Catalog* catalog) {
  XK_ASSIGN_OR_RETURN(std::vector<PendingRelation> pending,
                      CreateConnectionTables(d, tss, catalog));
  for (const PendingRelation& r : pending) {
    XK_RETURN_NOT_OK(FillConnectionRelation(*r.fragment, d.physical, objects, r.table));
  }
  return Status::OK();
}

}  // namespace xk::decomp
