#include "exec/plan.h"

#include "common/strings.h"

namespace xk::exec {

Status JoinQuery::Validate() const {
  if (steps.empty()) return Status::InvalidArgument("empty join query");
  for (size_t i = 0; i < steps.size(); ++i) {
    const JoinStep& s = steps[i];
    if (s.table == nullptr) {
      return Status::InvalidArgument(StrFormat("step %zu has no table", i));
    }
    auto col_ok = [&s](int c) { return c >= 0 && c < s.table->arity(); };
    for (const auto& [col, ref] : s.eq) {
      if (!col_ok(col)) {
        return Status::OutOfRange(StrFormat("step %zu eq column %d", i, col));
      }
      if (ref.step < 0 || static_cast<size_t>(ref.step) >= i) {
        return Status::InvalidArgument(
            StrFormat("step %zu eq ref to step %d is not strictly backward", i,
                      ref.step));
      }
      const storage::Table* rt = steps[static_cast<size_t>(ref.step)].table;
      if (ref.column < 0 || ref.column >= rt->arity()) {
        return Status::OutOfRange(StrFormat("step %zu eq ref column %d", i, ref.column));
      }
    }
    for (const ColumnInSet& f : s.in_filters) {
      if (!col_ok(f.column)) {
        return Status::OutOfRange(StrFormat("step %zu in-filter column %d", i, f.column));
      }
      if (f.set == nullptr) {
        return Status::InvalidArgument(StrFormat("step %zu null in-filter set", i));
      }
    }
    for (const ColumnBinding& f : s.const_filters) {
      if (!col_ok(f.column)) {
        return Status::OutOfRange(StrFormat("step %zu const-filter column %d", i, f.column));
      }
    }
    if (i > 0 && s.eq.empty()) {
      return Status::InvalidArgument(
          StrFormat("step %zu has no join predicate (cartesian product)", i));
    }
  }
  return Status::OK();
}

Status NestedLoopExecutor::Run(const RowSink& sink, size_t limit) {
  XK_RETURN_NOT_OK(query_->Validate());
  std::vector<storage::TupleView> rows(query_->steps.size());
  binding_scratch_.resize(query_->steps.size());
  row_scratch_.resize(query_->steps.size());
  size_t produced = 0;
  Recurse(0, &rows, sink, limit, &produced);
  return Status::OK();
}

bool NestedLoopExecutor::Recurse(size_t depth, std::vector<storage::TupleView>* rows,
                                 const RowSink& sink, size_t limit,
                                 size_t* produced) {
  const JoinStep& step = query_->steps[depth];
  // Assemble this probe's constant bindings from join refs + const filters
  // into the per-depth scratch (no allocation once its capacity is warm).
  std::vector<ColumnBinding>& bindings = binding_scratch_[depth];
  bindings.assign(step.const_filters.begin(), step.const_filters.end());
  bindings.reserve(bindings.size() + step.eq.size());
  for (const auto& [col, ref] : step.eq) {
    bindings.push_back(
        ColumnBinding{col, (*rows)[static_cast<size_t>(ref.step)][
                               static_cast<size_t>(ref.column)]});
  }
  static const std::vector<ColumnBloom> kNoBlooms;
  const std::vector<ColumnBloom>& blooms =
      (step_blooms_ != nullptr && depth < step_blooms_->size())
          ? (*step_blooms_)[depth]
          : kNoBlooms;
  bool keep_going = true;
  ForEachMatch(*step.table, bindings, step.in_filters, blooms, opts_,
               [&](storage::RowId r) {
                 (*rows)[depth] = step.table->RowInto(r, &row_scratch_[depth]);
                 if (depth + 1 == query_->steps.size()) {
                   ++*produced;
                   keep_going = sink(*rows) && *produced < limit;
                 } else {
                   keep_going = Recurse(depth + 1, rows, sink, limit, produced);
                 }
                 return keep_going;
               },
               &stats_);
  return keep_going;
}

}  // namespace xk::exec
