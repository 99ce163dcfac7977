#include "exec/plan.h"

#include <unordered_map>

#include "common/cancel_token.h"
#include "common/logging.h"
#include "common/strings.h"
#include "exec/join_hash_table.h"
#include "exec/row_block.h"

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

Status HashJoinExecutor::Run(const RowSink& sink) {
  XK_RETURN_NOT_OK(query_->Validate());
  return opts_.vectorized ? RunVectorized(sink) : RunLegacy(sink);
}

Status HashJoinExecutor::RunVectorized(const RowSink& sink) {
  const std::vector<JoinStep>& steps = query_->steps;
  ExecOptions scan_opts = opts_;
  scan_opts.use_indexes = false;  // hash join pairs with full scans

  // Per step, the base-table rows passing the step's local filters, in scan
  // order. Intermediates reference these by ordinal: row r of a width-w
  // intermediate occupies current[r*w .. r*w+w), one scan ordinal per step.
  // Build scans run lazily so an empty intermediate stops all further work.
  std::vector<std::vector<storage::RowId>> scans(steps.size());
  auto scan_step = [&](size_t i) {
    const JoinStep& s = steps[i];
    ForEachMatch(*s.table, s.const_filters, s.in_filters, scan_opts,
                 [&](storage::RowId r) {
                   scans[i].push_back(r);
                   return true;
                 },
                 nullptr);
  };
  scan_step(0);

  size_t width = 1;
  std::vector<uint32_t> current(scans[0].size());
  for (uint32_t r = 0; r < current.size(); ++r) current[r] = r;
  rows_materialized_ += current.size();

  const size_t block =
      opts_.block_size != 0 ? opts_.block_size : RowBlock::kDefaultCapacity;
  std::vector<storage::ObjectId> key;  // one build or probe key
  std::vector<uint32_t> next;

  for (size_t i = 1; i < steps.size() && !current.empty(); ++i) {
    const JoinStep& s = steps[i];
    scan_step(i);
    key.resize(s.eq.size());

    // Build: flat open-addressing table over the step's scan, keyed by its
    // eq columns; duplicate rows chain in scan order.
    JoinHashTable table(static_cast<int>(s.eq.size()));
    table.Reserve(scans[i].size());
    for (size_t r = 0; r < scans[i].size(); ++r) {
      for (size_t k = 0; k < s.eq.size(); ++k) {
        key[k] = s.table->At(scans[i][r], static_cast<size_t>(s.eq[k].first));
      }
      table.Insert(key.data(), static_cast<uint32_t>(r));
    }

    // Probe: per intermediate row, gather its key and walk the match chain.
    // One cancellation poll per block of rows.
    next.clear();
    const size_t rows = current.size() / width;
    for (size_t base = 0; base < rows; base += block) {
      if (opts_.cancel != nullptr && opts_.cancel->StopRequested()) {
        return Status::OK();
      }
      for (size_t r = base; r < std::min(rows, base + block); ++r) {
        const uint32_t* left = &current[r * width];
        for (size_t k = 0; k < s.eq.size(); ++k) {
          const ColumnRef& ref = s.eq[k].second;
          const JoinStep& ref_step = steps[static_cast<size_t>(ref.step)];
          key[k] = ref_step.table->At(
              scans[static_cast<size_t>(ref.step)][left[ref.step]],
              static_cast<size_t>(ref.column));
        }
        for (uint32_t node = table.Lookup(key.data());
             node != JoinHashTable::kNil; node = table.NextMatch(node)) {
          next.insert(next.end(), left, left + width);
          next.push_back(table.MatchRow(node));
        }
      }
    }
    current = std::move(next);
    next = {};
    ++width;
    rows_materialized_ += current.size() / width;
  }

  std::vector<storage::TupleView> views(steps.size());
  std::vector<storage::Tuple> view_scratch(steps.size());
  const size_t rows = current.size() / width;
  for (size_t r = 0; r < rows; ++r) {
    const uint32_t* row = &current[r * width];
    for (size_t i = 0; i < width; ++i) {
      views[i] = steps[i].table->RowInto(scans[i][row[i]], &view_scratch[i]);
    }
    if (!sink(views)) break;
  }
  return Status::OK();
}

Status HashJoinExecutor::RunLegacy(const RowSink& sink) {
  const std::vector<JoinStep>& steps = query_->steps;
  ExecOptions no_index = opts_;
  no_index.use_indexes = false;

  // Materialized intermediate: per output row, one Tuple per step so far.
  std::vector<std::vector<storage::Tuple>> current;  // row -> step rows

  // Step 0: filtered scan.
  {
    const JoinStep& s0 = steps[0];
    storage::Tuple scratch;
    ForEachMatch(*s0.table, s0.const_filters, s0.in_filters, no_index,
                 [&](storage::RowId r) {
                   storage::TupleView row = s0.table->RowInto(r, &scratch);
                   current.push_back({storage::Tuple(row.begin(), row.end())});
                   return true;
                 },
                 nullptr);
    rows_materialized_ += current.size();
  }

  for (size_t i = 1; i < steps.size() && !current.empty(); ++i) {
    const JoinStep& s = steps[i];
    // Build side: hash rows of s.table (after local filters) on its eq columns.
    std::vector<int> build_cols;
    build_cols.reserve(s.eq.size());
    for (const auto& [col, ref] : s.eq) {
      (void)ref;
      build_cols.push_back(col);
    }
    std::unordered_map<storage::Tuple, std::vector<storage::RowId>,
                       storage::TupleHash>
        build;
    ForEachMatch(*s.table, s.const_filters, s.in_filters, no_index,
                 [&](storage::RowId r) {
                   storage::Tuple key;
                   key.reserve(build_cols.size());
                   for (int c : build_cols) key.push_back(s.table->At(r, c));
                   build[std::move(key)].push_back(r);
                   return true;
                 },
                 nullptr);

    // Probe side: each intermediate row.
    std::vector<std::vector<storage::Tuple>> next;
    for (std::vector<storage::Tuple>& left : current) {
      storage::Tuple key;
      key.reserve(s.eq.size());
      for (const auto& [col, ref] : s.eq) {
        (void)col;
        key.push_back(left[static_cast<size_t>(ref.step)]
                          [static_cast<size_t>(ref.column)]);
      }
      auto it = build.find(key);
      if (it == build.end()) continue;
      for (storage::RowId r : it->second) {
        std::vector<storage::Tuple> combined = left;
        storage::Tuple scratch;
        storage::TupleView row = s.table->RowInto(r, &scratch);
        combined.emplace_back(row.begin(), row.end());
        next.push_back(std::move(combined));
      }
    }
    current = std::move(next);
    rows_materialized_ += current.size();
  }

  std::vector<storage::TupleView> views(steps.size());
  for (const std::vector<storage::Tuple>& out : current) {
    for (size_t i = 0; i < out.size(); ++i) views[i] = storage::TupleView(out[i]);
    if (!sink(views)) break;
  }
  return Status::OK();
}

}  // namespace xk::exec
