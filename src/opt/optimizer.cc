#include "opt/optimizer.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"
#include "opt/cost_model.h"

namespace xk::opt {

Optimizer::Optimizer(const schema::TssGraph* tss,
                     const decomp::Decomposition* decomposition,
                     const storage::Catalog* catalog,
                     const schema::TargetObjectGraph* objects)
    : tss_(tss), decomposition_(decomposition), catalog_(catalog), objects_(objects) {
  XK_CHECK(tss != nullptr && decomposition != nullptr && catalog != nullptr &&
           objects != nullptr);
}

namespace {

/// Selectivities of a CTSSN node's filters against its segment cardinality.
std::vector<double> NodeSelectivities(const cn::Ctssn& ctssn, const NodeFilters& filters,
                                      const schema::TargetObjectGraph& objects,
                                      int node) {
  std::vector<double> out;
  int64_t domain = objects.CountOfSegment(
      ctssn.tree.nodes[static_cast<size_t>(node)]);
  for (const storage::IdSet* set : filters[static_cast<size_t>(node)]) {
    out.push_back(FilterSelectivity(set->size(), domain));
  }
  return out;
}

/// Estimated cardinality of scanning a tiling piece with only its own
/// keyword filters applied.
double PieceStartCost(const decomp::Embedding& piece, const storage::Table& table,
                      const cn::Ctssn& ctssn, const NodeFilters& filters,
                      const schema::TargetObjectGraph& objects) {
  std::vector<double> sel;
  for (int target_node : piece.node_map) {
    std::vector<double> s = NodeSelectivities(ctssn, filters, objects, target_node);
    sel.insert(sel.end(), s.begin(), s.end());
  }
  return EstimateProbeOutput(table, {}, sel);
}

bool PieceHasKeyword(const decomp::Embedding& piece, const NodeFilters& filters) {
  for (int target_node : piece.node_map) {
    if (!filters[static_cast<size_t>(target_node)].empty()) return true;
  }
  return false;
}

std::string StepSignature(const storage::Table& table,
                          const decomp::Embedding& piece,
                          const NodeFilters& filters) {
  std::string sig = table.name();
  for (size_t col = 0; col < piece.node_map.size(); ++col) {
    int target_node = piece.node_map[col];
    for (const storage::IdSet* set : filters[static_cast<size_t>(target_node)]) {
      sig += StrFormat("|c%zu@%p", col, static_cast<const void*>(set));
    }
  }
  return sig;
}

}  // namespace

Result<CtssnPlan> Optimizer::Plan(const cn::Ctssn& ctssn,
                                  const NodeFilters& filters) const {
  if (filters.size() != static_cast<size_t>(ctssn.num_nodes())) {
    return Status::InvalidArgument("filters/nodes arity mismatch");
  }
  CtssnPlan plan;
  plan.ctssn = &ctssn;
  plan.node_source.assign(static_cast<size_t>(ctssn.num_nodes()),
                          exec::ColumnRef{-1, -1});

  if (ctssn.tree.size() == 0) {
    // Single-object network: answered from the master index alone.
    plan.joins = 0;
    plan.estimated_cost = 1.0;
    return plan;
  }

  std::optional<ResolvedTiling> tiling =
      BestTiling(ctssn.tree, *tss_, *decomposition_, *catalog_);
  if (!tiling.has_value()) {
    return Status::NotFound(
        StrFormat("decomposition %s cannot cover network %s",
                  decomposition_->name.c_str(), ctssn.ToString(*tss_).c_str()));
  }

  // Order pieces: outermost = cheapest keyword piece (fall back to cheapest);
  // then greedily any piece sharing an occurrence, cheapest start first.
  const size_t n = tiling->pieces.size();
  std::vector<double> start_cost(n);
  for (size_t i = 0; i < n; ++i) {
    start_cost[i] = PieceStartCost(tiling->pieces[i], *tiling->tables[i], ctssn,
                                   filters, *objects_);
  }
  std::vector<size_t> order;
  std::vector<bool> placed(n, false);
  std::vector<bool> node_bound(static_cast<size_t>(ctssn.num_nodes()), false);

  auto pick_first = [&]() {
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      bool kw = PieceHasKeyword(tiling->pieces[i], filters);
      if (best == n) {
        best = i;
        continue;
      }
      bool best_kw = PieceHasKeyword(tiling->pieces[best], filters);
      if (kw != best_kw) {
        if (kw) best = i;
        continue;
      }
      if (start_cost[i] < start_cost[best]) best = i;
    }
    return best;
  };

  size_t first = pick_first();
  order.push_back(first);
  placed[first] = true;
  for (int t : tiling->pieces[first].node_map) node_bound[static_cast<size_t>(t)] = true;

  while (order.size() < n) {
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      bool shares = false;
      for (int t : tiling->pieces[i].node_map) {
        if (node_bound[static_cast<size_t>(t)]) {
          shares = true;
          break;
        }
      }
      if (!shares) continue;
      if (best == n || start_cost[i] < start_cost[best]) best = i;
    }
    if (best == n) {
      return Status::Internal("tiling pieces do not connect (tree tiling broken)");
    }
    order.push_back(best);
    placed[best] = true;
    for (int t : tiling->pieces[best].node_map) {
      node_bound[static_cast<size_t>(t)] = true;
    }
  }

  // Emit steps.
  plan.estimated_cost = 0.0;
  double running = 1.0;
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const decomp::Embedding& piece = tiling->pieces[order[pos]];
    const storage::Table* table = tiling->tables[order[pos]];
    exec::JoinStep step;
    step.table = table;
    std::vector<int> bound_cols;
    for (size_t col = 0; col < piece.node_map.size(); ++col) {
      int target_node = piece.node_map[col];
      exec::ColumnRef& src = plan.node_source[static_cast<size_t>(target_node)];
      if (src.step != -1) {
        step.eq.push_back({static_cast<int>(col), src});
        bound_cols.push_back(static_cast<int>(col));
      } else {
        src = exec::ColumnRef{static_cast<int>(pos), static_cast<int>(col)};
        for (const storage::IdSet* set : filters[static_cast<size_t>(target_node)]) {
          step.in_filters.push_back(
              exec::ColumnInSet{static_cast<int>(col), set});
        }
      }
    }
    // Cost: probe output per outer row.
    std::vector<double> sel;
    for (const exec::ColumnInSet& f : step.in_filters) {
      int target_node = piece.node_map[static_cast<size_t>(f.column)];
      int64_t domain = objects_->CountOfSegment(
          ctssn.tree.nodes[static_cast<size_t>(target_node)]);
      sel.push_back(FilterSelectivity(f.set->size(), domain));
    }
    double out_rows = EstimateProbeOutput(*table, bound_cols, sel);
    plan.estimated_cost += running * std::max(out_rows, 1e-6);
    running *= std::max(out_rows, 1e-6);

    plan.step_signatures.push_back(StepSignature(*table, piece, filters));
    // Prefix signature: the previous prefix plus this step's scan signature
    // and equi-join edges. Edges reference (step, column) positions inside the
    // prefix, so equal strings across plans mean interchangeable join
    // prefixes — same relations, filters, and join shape in the same order.
    std::string prefix =
        plan.prefix_signatures.empty() ? std::string() : plan.prefix_signatures.back();
    prefix += "[" + plan.step_signatures.back();
    for (const auto& [col, ref] : step.eq) {
      prefix += StrFormat("|e%d=%d.%d", col, ref.step, ref.column);
    }
    prefix += "]";
    plan.prefix_signatures.push_back(std::move(prefix));
    plan.query.steps.push_back(std::move(step));
  }
  plan.estimated_rows = running;
  plan.joins = static_cast<int>(plan.query.steps.size()) - 1;
  XK_RETURN_NOT_OK(plan.query.Validate());
  return plan;
}

std::vector<size_t> PlanSchedule(const std::vector<CtssnPlan>& plans) {
  std::vector<size_t> order(plans.size());
  std::iota(order.begin(), order.end(), 0);
  auto size_of = [&](size_t p) {
    return plans[p].ctssn != nullptr ? plans[p].ctssn->cn_size : 0;
  };
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (size_of(a) != size_of(b)) return size_of(a) < size_of(b);
    if (plans[a].estimated_rows != plans[b].estimated_rows) {
      return plans[a].estimated_rows < plans[b].estimated_rows;
    }
    return a < b;
  });
  return order;
}

}  // namespace xk::opt
