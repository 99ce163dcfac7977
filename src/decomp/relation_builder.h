// Copyright (c) the XKeyword authors.
//
// Materializes the connection relations of a decomposition from the target
// object graph: for each fragment F, a table with one ObjectId column per
// occurrence and "a tuple ... for each subgraph of type F in the target
// object graph" (Section 5), plus the physical design the policy prescribes.

#ifndef XK_DECOMP_RELATION_BUILDER_H_
#define XK_DECOMP_RELATION_BUILDER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "decomp/decomposition.h"
#include "schema/decomposer.h"
#include "storage/catalog.h"

namespace xk::decomp {

/// Names the connection relation of fragment `f` within decomposition `d`
/// ("<decomposition>.<fragment>"), so several decompositions coexist in one
/// catalog for the Section-7 comparisons.
std::string RelationName(const Decomposition& d, const Fragment& f);

/// A connection relation whose table exists but is not yet filled.
struct PendingRelation {
  const Fragment* fragment;
  storage::Table* table;
};

/// Creates, in fragment order, the empty table of every relation of `d` not
/// yet in `catalog`, and returns them. Tables already present are left
/// untouched, so building a decomposition is idempotent per relation name.
Result<std::vector<PendingRelation>> CreateConnectionTables(
    const Decomposition& d, const schema::TssGraph& tss, storage::Catalog* catalog);

/// Fills one created table: its instances, the physical design, then
/// Freeze. Touches nothing but `table`, so distinct relations may be filled
/// concurrently; the result does not depend on which thread fills it.
Status FillConnectionRelation(const Fragment& f, PhysicalDesign physical,
                              const schema::TargetObjectGraph& objects,
                              storage::Table* table);

/// Builds (and freezes) all connection relations of `d` into `catalog` on
/// the calling thread: CreateConnectionTables, then FillConnectionRelation
/// on each. Idempotent per relation name: existing tables are left untouched.
Status BuildConnectionRelations(const Decomposition& d,
                                const schema::TargetObjectGraph& objects,
                                const schema::TssGraph& tss,
                                storage::Catalog* catalog);

/// Enumerates the instance subgraphs of `tree` in the target object graph,
/// invoking `fn` with one ObjectId per occurrence. Bindings are injective
/// (distinct occurrences bind distinct objects). Exposed for tests and for
/// the on-demand expansion engine.
void ForEachInstance(const schema::TssTree& tree,
                     const schema::TargetObjectGraph& objects,
                     const std::function<void(const std::vector<storage::ObjectId>&)>& fn);

}  // namespace xk::decomp

#endif  // XK_DECOMP_RELATION_BUILDER_H_
