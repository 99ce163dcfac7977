#include "decomp/decomposition.h"

#include <algorithm>
#include <bit>
#include <span>
#include <unordered_set>

#include "common/logging.h"
#include "common/strings.h"

namespace xk::decomp {

using schema::TssGraph;
using schema::TssTree;
using schema::TssTreeEdge;

int Decomposition::FindFragment(const TssTree& tree, const TssGraph& tss) const {
  const schema::CanonicalCode key = schema::CanonicalKey(tree, tss);
  for (size_t i = 0; i < fragments.size(); ++i) {
    if (schema::CanonicalKey(fragments[i].tree, tss) == key) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int FragmentSizeBound(int max_network_size, int max_joins) {
  XK_CHECK_GE(max_joins, 0);
  XK_CHECK_GE(max_network_size, 1);
  return (max_network_size + max_joins) / (max_joins + 1);  // ceil(M / (B+1))
}

namespace {

Fragment MakeFragment(TssTree tree, const TssGraph& tss) {
  Fragment f;
  f.name = MakeFragmentName(tree, tss);
  f.tree = std::move(tree);
  return f;
}

/// All useful (possible) trees of size in [1, max_size].
Result<std::vector<TssTree>> UsefulTrees(const TssGraph& tss, int max_size) {
  EnumerateOptions opts;
  opts.max_size = max_size;
  opts.include_empty = false;
  opts.skip_impossible = true;
  return EnumerateTrees(tss, opts);
}

}  // namespace

Decomposition MakeMinimal(const TssGraph& tss, PhysicalDesign physical,
                          bool use_indexes_at_runtime) {
  Decomposition d;
  d.physical = physical;
  d.use_indexes_at_runtime = use_indexes_at_runtime;
  switch (physical) {
    case PhysicalDesign::kClusterPerDirection: d.name = "MinClust"; break;
    case PhysicalDesign::kHashIndexPerColumn: d.name = "MinNClustIndx"; break;
    case PhysicalDesign::kNone: d.name = "MinNClustNIndx"; break;
  }
  for (schema::TssEdgeId e = 0; e < tss.NumEdges(); ++e) {
    const schema::TssEdge& te = tss.edge(e);
    TssTree tree;
    tree.nodes = {te.from, te.to};
    tree.edges = {TssTreeEdge{0, 1, e}};
    d.fragments.push_back(MakeFragment(std::move(tree), tss));
  }
  return d;
}

Result<Decomposition> MakeComplete(const TssGraph& tss, int L) {
  Decomposition d;
  d.name = "Complete";
  d.physical = PhysicalDesign::kClusterPerDirection;
  XK_ASSIGN_OR_RETURN(std::vector<TssTree> trees, UsefulTrees(tss, L));
  for (TssTree& tree : trees) {
    d.fragments.push_back(MakeFragment(std::move(tree), tss));
  }
  return d;
}

Result<Decomposition> MakeMaximal(const TssGraph& tss, int M) {
  Decomposition d;
  d.name = "Maximal";
  d.physical = PhysicalDesign::kClusterPerDirection;
  XK_ASSIGN_OR_RETURN(std::vector<TssTree> trees, UsefulTrees(tss, M));
  for (TssTree& tree : trees) {
    d.fragments.push_back(MakeFragment(std::move(tree), tss));
  }
  return d;
}

namespace {

/// True when at most `pieces` of the embedding masks in `masks` and `extra`
/// together cover every edge of `full`. A cover must hold a piece covering
/// the lowest uncovered edge and the order of pieces does not matter, so
/// trying only those pieces is exact; once no more edges are missing than
/// pieces are left, one piece per missing edge suffices and the union
/// decides. Allocation-free; stops at `pieces` and returns as soon as `full`
/// is reached.
bool CoverableWithin(uint32_t covered, uint32_t full, int pieces,
                     std::span<const uint32_t> masks,
                     std::span<const uint32_t> extra) {
  const uint32_t missing = full & ~covered;
  if (missing == 0) return true;
  if (pieces == 0) return false;
  if (std::popcount(missing) <= pieces) {
    uint32_t all = 0;
    for (uint32_t m : masks) all |= m;
    for (uint32_t m : extra) all |= m;
    return (missing & ~all) == 0;
  }
  const uint32_t need = missing & (~missing + 1);
  for (std::span<const uint32_t> set : {masks, extra}) {
    for (uint32_t m : set) {
      if ((m & need) != 0 &&
          CoverableWithin(covered | m, full, pieces - 1, masks, extra)) {
        return true;
      }
    }
  }
  return false;
}

/// Sorts and dedupes embedding masks (coverage only depends on the set).
void Dedupe(std::vector<uint32_t>* masks) {
  std::sort(masks->begin(), masks->end());
  masks->erase(std::unique(masks->begin(), masks->end()), masks->end());
}

/// Coverage state of one candidate network: the deduped edge masks of every
/// embedding of the decomposition-so-far, so testing a new fragment only
/// runs the matcher for that fragment.
struct NetworkCoverage {
  const TssTree* tree;
  std::vector<uint32_t> masks;

  /// Evaluable with at most `max_joins` joins, given `extra` masks too.
  bool CoveredWith(std::span<const uint32_t> extra, int max_joins) const {
    const uint32_t full = (1u << tree->size()) - 1;
    return CoverableWithin(0, full, max_joins + 1, masks, extra);
  }

  void Add(std::span<const uint32_t> more) {
    masks.insert(masks.end(), more.begin(), more.end());
    Dedupe(&masks);
  }
};

}  // namespace

Result<Decomposition> MakeXKeyword(const TssGraph& tss, int B, int M) {
  if (B < 0 || M < 1) return Status::InvalidArgument("need B >= 0, M >= 1");
  if (M >= 32) {
    return Status::InvalidArgument(StrFormat(
        "M = %d: networks are tracked in 32-bit edge masks, so M must be below 32",
        M));
  }
  const int L = FragmentSizeBound(M, B);

  Decomposition d;
  d.name = "XKeyword";
  d.physical = PhysicalDesign::kClusterPerDirection;

  XK_ASSIGN_OR_RETURN(std::vector<TssTree> all_trees, UsefulTrees(tss, M));
  std::vector<bool> is_mvd(all_trees.size());
  for (size_t t = 0; t < all_trees.size(); ++t) {
    is_mvd[t] = Classify(all_trees[t], tss) == FragmentClass::kMVD;
  }

  // Step 1: all non-MVD fragments of size <= L.
  for (size_t t = 0; t < all_trees.size(); ++t) {
    if (all_trees[t].size() <= L && !is_mvd[t]) {
      d.fragments.push_back(MakeFragment(all_trees[t], tss));
    }
  }

  // Step 2: candidate TSS networks of size <= M not covered with <= B joins.
  // Embedding masks of the current decomposition are cached per network.
  std::vector<NetworkCoverage> uncovered;
  std::vector<uint32_t> masks;
  for (const TssTree& tree : all_trees) {
    NetworkCoverage cov{&tree, {}};
    for (const Fragment& f : d.fragments) {
      AppendEmbeddingMasks(f.tree, tree, tss, &cov.masks);
    }
    Dedupe(&cov.masks);
    if (!cov.CoveredWith({}, B)) uncovered.push_back(std::move(cov));
  }

  // Step 3: non-MVD fragments of size > L that help cover some remaining
  // network (Figure 11: a bigger non-MVD fragment can displace an MVD one).
  for (size_t t = 0; t < all_trees.size(); ++t) {
    if (uncovered.empty()) break;
    if (all_trees[t].size() <= L || is_mvd[t]) continue;
    bool helps = false;
    for (const NetworkCoverage& cov : uncovered) {
      masks.clear();
      AppendEmbeddingMasks(all_trees[t], *cov.tree, tss, &masks);
      if (!masks.empty() && cov.CoveredWith(masks, B)) {
        helps = true;
        break;
      }
    }
    if (!helps) continue;
    d.fragments.push_back(MakeFragment(all_trees[t], tss));
    std::vector<NetworkCoverage> still;
    for (NetworkCoverage& cov : uncovered) {
      masks.clear();
      AppendEmbeddingMasks(all_trees[t], *cov.tree, tss, &masks);
      cov.Add(masks);
      if (!cov.CoveredWith({}, B)) still.push_back(std::move(cov));
    }
    uncovered = std::move(still);
  }

  // Step 4: minimum number of MVD fragments of size <= L for the rest
  // (greedy set cover — the exact problem is NP-complete). A candidate's
  // embeddings into a network never change between rounds, so each
  // candidate x network mask set is computed once; network n of round 1 is
  // uncovered[n] for the whole loop.
  std::vector<size_t> candidates;
  for (size_t t = 0; t < all_trees.size(); ++t) {
    if (all_trees[t].size() <= L && is_mvd[t]) candidates.push_back(t);
  }
  const size_t num_networks = uncovered.size();
  std::vector<uint32_t> memo;                      // every mask set, back to back
  std::vector<std::pair<size_t, size_t>> memo_at;  // [candidate * N + network]
  memo_at.reserve(candidates.size() * num_networks);
  for (size_t t : candidates) {
    for (const NetworkCoverage& cov : uncovered) {
      masks.clear();
      AppendEmbeddingMasks(all_trees[t], *cov.tree, tss, &masks);
      Dedupe(&masks);
      memo_at.emplace_back(memo.size(), masks.size());
      memo.insert(memo.end(), masks.begin(), masks.end());
    }
  }
  auto memo_masks = [&](size_t c, size_t n) {
    const auto [at, count] = memo_at[c * num_networks + n];
    return std::span<const uint32_t>(memo.data() + at, count);
  };
  std::vector<size_t> alive(num_networks);
  for (size_t n = 0; n < num_networks; ++n) alive[n] = n;
  while (!alive.empty()) {
    size_t best = candidates.size();
    size_t best_covers = 0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      size_t covers = 0;
      for (size_t n : alive) {
        std::span<const uint32_t> extra = memo_masks(c, n);
        if (!extra.empty() && uncovered[n].CoveredWith(extra, B)) ++covers;
      }
      if (covers > best_covers) {
        best = c;
        best_covers = covers;
      }
    }
    if (best == candidates.size()) {
      // No MVD fragment helps; the join bound B is unreachable for the
      // remaining networks. They are still *evaluable* (Lemma 5.1 holds via
      // the single-edge fragments of step 1), just with more joins.
      XK_LOG(Warning) << d.name << ": " << alive.size()
                      << " networks stay above the B=" << B << " join bound";
      break;
    }
    d.fragments.push_back(MakeFragment(all_trees[candidates[best]], tss));
    std::vector<size_t> still;
    for (size_t n : alive) {
      uncovered[n].Add(memo_masks(best, n));
      if (!uncovered[n].CoveredWith({}, B)) still.push_back(n);
    }
    alive = std::move(still);
  }
  return d;
}

Result<Decomposition> MakeInlined(const TssGraph& tss, int B, int M) {
  XK_ASSIGN_OR_RETURN(Decomposition d, MakeXKeyword(tss, B, M));
  d.name = "Inlined";
  // Which TSS edges appear in fragments wider than one edge?
  std::unordered_set<schema::TssEdgeId> covered_wide;
  for (const Fragment& f : d.fragments) {
    if (f.size() < 2) continue;
    for (const TssTreeEdge& e : f.tree.edges) covered_wide.insert(e.tss_edge);
  }
  std::vector<Fragment> kept;
  for (Fragment& f : d.fragments) {
    if (f.size() == 1 && covered_wide.contains(f.tree.edges[0].tss_edge)) {
      continue;  // a wider fragment serves this edge
    }
    kept.push_back(std::move(f));
  }
  d.fragments = std::move(kept);
  return d;
}

Decomposition Combine(const Decomposition& a, const Decomposition& b,
                      const TssGraph& tss, std::string name) {
  Decomposition d;
  d.name = std::move(name);
  d.physical = a.physical;
  d.use_indexes_at_runtime = a.use_indexes_at_runtime && b.use_indexes_at_runtime;
  std::unordered_set<schema::CanonicalCode, schema::CanonicalCodeHash> seen;
  for (const Decomposition* src : {&a, &b}) {
    for (const Fragment& f : src->fragments) {
      if (seen.insert(schema::CanonicalKey(f.tree, tss)).second) {
        d.fragments.push_back(f);
      }
    }
  }
  return d;
}

}  // namespace xk::decomp
