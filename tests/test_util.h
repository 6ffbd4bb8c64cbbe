#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "exec/contract_check.h"
#include "exec/operator.h"
#include "expr/expression.h"
#include "storage/table.h"

namespace bufferdb::testutil {

/// Wraps a plan root in the Operator state-machine contract checker
/// (DESIGN.md section 9.2) in checking builds — Debug or
/// -DBUFFERDB_CHECK_CONTRACTS=ON — and is the identity otherwise.
/// `static`, not `inline`: BUFFERDB_WRAP_CONTRACT_CHECKED expands per
/// translation unit (contract_check_test force-toggles it both ways in one
/// binary), so the function must have internal linkage to stay ODR-clean.
[[maybe_unused]] static OperatorPtr ContractChecked(OperatorPtr op) {
  return BUFFERDB_WRAP_CONTRACT_CHECKED(std::move(op));
}

/// Pass-through operator that counts the transfer calls its parent makes,
/// so tests can tell a batch-draining consumer from a row-pulling one.
class CountingOperator final : public Operator {
 public:
  explicit CountingOperator(OperatorPtr inner) { AddChild(std::move(inner)); }

  [[nodiscard]] Status Open(ExecContext* ctx) override {
    ++opens;
    return child(0)->Open(ctx);
  }
  const uint8_t* Next() override {
    ++next_calls;
    return child(0)->Next();
  }
  size_t NextBatch(const uint8_t** out, size_t max) override {
    ++batch_calls;
    return child(0)->NextBatch(out, max);
  }
  void Close() override { child(0)->Close(); }

  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return child(0)->module_id(); }

  size_t opens = 0;
  size_t next_calls = 0;
  size_t batch_calls = 0;
};

/// Two-column (k INT64, v DOUBLE) table from (k, v) pairs.
inline std::unique_ptr<Table> MakeKvTable(
    const std::string& name,
    const std::vector<std::pair<int64_t, double>>& rows) {
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}});
  auto table = std::make_unique<Table>(name, schema);
  for (const auto& [k, v] : rows) {
    table->AppendRow({Value::Int64(k), Value::Double(v)});
  }
  return table;
}

inline ExprPtr Col(const Schema& schema, const std::string& name) {
  auto r = MakeColumnRef(schema, name);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(*r);
}

inline ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto res = MakeBinary(op, std::move(l), std::move(r));
  EXPECT_TRUE(res.ok()) << res.status();
  return std::move(*res);
}

inline ExprPtr Lit(Value v) { return MakeLiteral(std::move(v)); }

/// Executes a plan (no simulation) and returns boxed rows.
inline std::vector<std::vector<Value>> RunPlan(Operator* root) {
  ExecContext ctx;
  auto rows = ExecutePlanRows(root, &ctx);
  EXPECT_TRUE(rows.ok()) << rows.status();
  return rows.ok() ? *rows : std::vector<std::vector<Value>>{};
}

/// Renders result rows as sorted strings for order-insensitive comparison.
inline std::vector<std::string> Canonical(
    const std::vector<std::vector<Value>>& rows) {
  std::vector<std::string> out;
  for (const auto& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += "|";
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace bufferdb::testutil

