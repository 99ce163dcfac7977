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

}  // namespace xk::exec
