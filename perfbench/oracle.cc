// The answer key: an independent single-threaded engine and the comparisons
// between its answers and the federation's replies.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench.h"
#include "engine/database.h"
#include "engine/exec_context.h"

namespace perfbench {

namespace {

using mip::engine::Column;
using mip::engine::DataType;

bool IsFloat(const Column& c) { return c.type() == DataType::kFloat64; }

/// Sort key of one row: its non-float cells, then its float cells at full
/// precision (rows of one answer differ in their group keys first).
std::string RowKey(const Table& t, size_t row) {
  std::string key;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Column& col = t.column(c);
      if (IsFloat(col) != (pass == 1)) continue;
      if (!col.IsValid(row)) {
        key += "\x01null";
      } else if (IsFloat(col)) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", col.DoubleAt(row));
        key += buf;
      } else {
        key += col.ValueAt(row).ToString();
      }
      key += '\x1f';
    }
  }
  return key;
}

std::vector<size_t> SortedRows(const Table& t) {
  std::vector<std::string> keys(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) keys[r] = RowKey(t, r);
  std::vector<size_t> order(t.num_rows());
  for (size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  return order;
}

bool Close(double a, double b, double tolerance) {
  if (a == b) return true;
  if (std::isnan(a) && std::isnan(b)) return true;
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tolerance * scale;
}

}  // namespace

std::string CompareTables(const Table& expected, const Table& actual) {
  if (expected.num_columns() != actual.num_columns()) {
    return "column count " + std::to_string(actual.num_columns()) +
           " != expected " + std::to_string(expected.num_columns());
  }
  if (expected.num_rows() != actual.num_rows()) {
    return "row count " + std::to_string(actual.num_rows()) +
           " != expected " + std::to_string(expected.num_rows());
  }
  const std::vector<size_t> e_order = SortedRows(expected);
  const std::vector<size_t> a_order = SortedRows(actual);
  for (size_t i = 0; i < e_order.size(); ++i) {
    const size_t er = e_order[i];
    const size_t ar = a_order[i];
    for (size_t c = 0; c < expected.num_columns(); ++c) {
      const Column& ec = expected.column(c);
      const Column& ac = actual.column(c);
      const bool e_null = !ec.IsValid(er);
      const bool a_null = !ac.IsValid(ar);
      bool same = e_null == a_null;
      if (same && !e_null) {
        if (IsFloat(ec) || IsFloat(ac)) {
          same = Close(ec.AsDoubleAt(er), ac.AsDoubleAt(ar), 1e-9);
        } else {
          same = ec.ValueAt(er).ToString() == ac.ValueAt(ar).ToString();
        }
      }
      if (!same) {
        return "row " + std::to_string(i) + " column " +
               expected.schema().field(c).name + ": got " +
               ac.ValueAt(ar).ToString() + ", expected " +
               ec.ValueAt(er).ToString();
      }
    }
  }
  return "";
}

std::string CompareResultText(const std::string& expected,
                              const std::string& actual, double tolerance) {
  auto number_at = [](const std::string& s, size_t i) {
    const char c = s[i];
    if (std::isdigit(static_cast<unsigned char>(c))) return true;
    return (c == '-' || c == '+' || c == '.') && i + 1 < s.size() &&
           std::isdigit(static_cast<unsigned char>(s[i + 1]));
  };
  size_t i = 0;
  size_t j = 0;
  while (i < expected.size() && j < actual.size()) {
    if (number_at(expected, i) && number_at(actual, j)) {
      char* e_end = nullptr;
      char* a_end = nullptr;
      const double e = std::strtod(expected.c_str() + i, &e_end);
      const double a = std::strtod(actual.c_str() + j, &a_end);
      if (!Close(e, a, tolerance)) {
        const char* a_begin = actual.c_str() + j;
        const char* e_begin = expected.c_str() + i;
        return "value " + std::string(a_begin, a_end - a_begin) +
               " != expected " + std::string(e_begin, e_end - e_begin) +
               " at offset " + std::to_string(i);
      }
      i = static_cast<size_t>(e_end - expected.c_str());
      j = static_cast<size_t>(a_end - actual.c_str());
      continue;
    }
    if (expected[i] != actual[j]) {
      return "text differs at offset " + std::to_string(i);
    }
    ++i;
    ++j;
  }
  if (i != expected.size() || j != actual.size()) return "length differs";
  return "";
}

SqlOracle::SqlOracle()
    : db_(std::make_unique<mip::engine::Database>("oracle")) {
  db_->set_exec_context(&mip::engine::ExecContext::Serial());
  db_->set_optimizer_enabled(false);
}

Status SqlOracle::Put(const std::string& name, Table table) {
  return db_->PutTable(name, std::move(table));
}

Status SqlOracle::Append(const std::string& name, const Table& rows) {
  MIP_ASSIGN_OR_RETURN(Table current, db_->GetTable(name));
  MIP_ASSIGN_OR_RETURN(Table merged, Table::Concat({std::move(current), rows}));
  return db_->PutTable(name, std::move(merged));
}

std::vector<Result<Table>> SqlOracle::RunMany(const std::vector<std::string>& sqls,
                                              int threads) {
  // Planning may fill catalog caches, so it runs here; executing a plan only
  // reads the catalog, so the plans share the worker threads.
  std::vector<Result<Table>> out;
  std::vector<mip::engine::PlanPtr> plans;
  for (const std::string& sql : sqls) {
    Result<mip::engine::PlanPtr> plan = db_->TryPlanSelectSql(sql);
    if (!plan.ok()) {
      out.push_back(plan.status());
    } else if (*plan == nullptr) {
      out.push_back(Status::InvalidArgument("oracle runs SELECTs only: " + sql));
    } else {
      out.push_back(Status::ExecutionError("not run"));
    }
    plans.push_back(plan.ok() ? *plan : nullptr);
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < plans.size(); i = next++) {
        if (plans[i] != nullptr) out[i] = db_->ExecutePlannedSelect(*plans[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return out;
}

}  // namespace perfbench
