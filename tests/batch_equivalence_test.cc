// Batch/tuple equivalence suite (ISSUE acceptance criteria): for every
// operator type, draining a plan through NextBatch must produce exactly the
// rows Next() produces — same values, same order (order-insensitive only for
// parallel Exchange plans, whose interleaving is nondeterministic by design).
// Parameterized over batch sizes 1, 7, 256 and 1024 so the suite covers the
// degenerate single-slot batch, a size that never divides the inputs evenly,
// the default, and a batch larger than most inputs. Runs under ASan/UBSan in
// CI, so it also pins down the pointer-validity part of the contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/buffer_operator.h"
#include "exec/aggregation.h"
#include "exec/column_scan.h"
#include "exec/filter.h"
#include "exec/hash_aggregation.h"
#include "exec/hash_join.h"
#include "exec/project.h"
#include "exec/seq_scan.h"
#include "exec/sort.h"
#include "plan/physical_planner.h"
#include "sql/binder.h"
#include "storage/column_table.h"
#include "test_util.h"
#include "tpch/tpch_gen.h"

namespace bufferdb {
namespace {

using testutil::Bin;
using testutil::Canonical;
using testutil::Col;
using testutil::Lit;
using testutil::MakeKvTable;
using testutil::RunPlan;

// Deterministic (k, v) rows with repeated keys; 997 rows so no batch size
// under test divides the input evenly.
std::vector<std::pair<int64_t, double>> TestRows(size_t n = 997) {
  std::vector<std::pair<int64_t, double>> rows;
  uint64_t state = 12345;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    rows.emplace_back(static_cast<int64_t>(state % 37),
                      static_cast<double>(state % 1000) / 10.0);
  }
  return rows;
}

std::vector<std::vector<Value>> Decode(const std::vector<const uint8_t*>& rows,
                                       const Schema& schema) {
  std::vector<std::vector<Value>> out;
  out.reserve(rows.size());
  for (const uint8_t* row : rows) {
    TupleView view(row, &schema);
    std::vector<Value> values;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      values.push_back(view.GetValue(c));
    }
    out.push_back(std::move(values));
  }
  return out;
}

// Drains `root` through NextBatch and boxes the rows. Decoding happens
// before Close so the suite relies only on the documented pointer validity
// (query arena / storage lifetime), which ASan would flag if violated.
std::vector<std::vector<Value>> RunPlanBatched(Operator* root, size_t batch) {
  ExecContext ctx;
  auto rows = ExecutePlanBatched(root, &ctx, batch);
  EXPECT_TRUE(rows.ok()) << rows.status();
  if (!rows.ok()) return {};
  return Decode(*rows, root->output_schema());
}

// Exact equality: same type, same nullness, same value (doubles compared
// exactly, so a re-associated sum fails).
void ExpectSameRows(const std::vector<std::vector<Value>>& expected,
                    const std::vector<std::vector<Value>>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].size(), actual[i].size()) << "row " << i;
    for (size_t c = 0; c < expected[i].size(); ++c) {
      EXPECT_EQ(expected[i][c].type(), actual[i][c].type())
          << "row " << i << " col " << c;
      EXPECT_TRUE(expected[i][c] == actual[i][c])
          << "row " << i << " col " << c << ": " << expected[i][c].ToString()
          << " vs " << actual[i][c].ToString();
    }
  }
}

// Sets the pull width on every operator of a plan, as the planner and the
// refiner do for a batched plan.
void SetPlanWidth(Operator* op, size_t width) {
  op->set_batch_size(width);
  for (size_t i = 0; i < op->num_children(); ++i) {
    SetPlanWidth(op->child(i), width);
  }
}

class BatchEquivalenceTest : public ::testing::TestWithParam<size_t> {
 protected:
  size_t batch() const { return GetParam(); }

  // Builds the plan twice via `factory` and checks NextBatch output of the
  // width-`batch()` plan against the tuple-at-a-time output.
  template <typename Factory>
  void CheckEquivalent(Factory factory) {
    // Both plans go through the contract checker: in Debug builds every
    // operator pairing in this suite also asserts the Open/Next/Close state
    // machine and poisons stale batch slices; in Release the wrapper
    // compiles away.
    OperatorPtr tuple_plan = testutil::ContractChecked(factory());
    OperatorPtr batch_plan = testutil::ContractChecked(factory());
    SetPlanWidth(batch_plan.get(), batch());
    ExpectSameRows(RunPlan(tuple_plan.get()),
                   RunPlanBatched(batch_plan.get(), batch()));
  }
};

TEST_P(BatchEquivalenceTest, SeqScan) {
  auto table = MakeKvTable("t", TestRows());
  CheckEquivalent(
      [&] { return std::make_unique<SeqScanOperator>(table.get(), nullptr); });
}

TEST_P(BatchEquivalenceTest, SeqScanWithPredicate) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    return std::make_unique<SeqScanOperator>(
        table.get(),
        Bin(BinaryOp::kLt, Col(s, "v"), Lit(Value::Double(40.0))));
  });
}

TEST_P(BatchEquivalenceTest, FilterAboveScan) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    return std::make_unique<FilterOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr),
        Bin(BinaryOp::kGe, Col(s, "k"), Lit(Value::Int64(9))));
  });
}

TEST_P(BatchEquivalenceTest, FilterRejectingEverything) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    return std::make_unique<FilterOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr),
        Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(-1))));
  });
}

TEST_P(BatchEquivalenceTest, ProjectAboveScan) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    std::vector<ProjectItem> items;
    items.push_back(ProjectItem{
        Bin(BinaryOp::kMul, Col(s, "v"), Lit(Value::Double(2.0))), "v2"});
    items.push_back(ProjectItem{Col(s, "k"), "k"});
    return std::make_unique<ProjectOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr),
        std::move(items));
  });
}

TEST_P(BatchEquivalenceTest, BufferAboveScan) {
  auto table = MakeKvTable("t", TestRows());
  for (size_t buffer_size : {3u, 100u, 2000u}) {
    CheckEquivalent([&] {
      return std::make_unique<BufferOperator>(
          std::make_unique<SeqScanOperator>(table.get(), nullptr),
          buffer_size);
    });
  }
}

TEST_P(BatchEquivalenceTest, StackedBuffersWithFilter) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    OperatorPtr plan = std::make_unique<SeqScanOperator>(table.get(), nullptr);
    plan = std::make_unique<BufferOperator>(std::move(plan), 64);
    plan = std::make_unique<FilterOperator>(
        std::move(plan), Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(20))));
    plan = std::make_unique<BufferOperator>(std::move(plan), 128);
    return plan;
  });
}

TEST_P(BatchEquivalenceTest, SortDefaultNextBatch) {
  // Sort has no NextBatch override: covers the base-class fallback loop.
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    std::vector<SortKey> keys;
    keys.push_back(SortKey{Col(s, "k"), false});
    keys.push_back(SortKey{Col(s, "v"), true});
    return std::make_unique<SortOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr),
        std::move(keys));
  });
}

TEST_P(BatchEquivalenceTest, ScalarAggregation) {
  // CheckEquivalent sets the width on the batch plan, so the aggregate
  // drains its scan through NextBatch.
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  CheckEquivalent([&] {
    std::vector<AggSpec> specs;
    specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
    specs.push_back(AggSpec{AggFunc::kSum, Col(s, "v"), "sum_v"});
    specs.push_back(AggSpec{AggFunc::kMax, Col(s, "k"), "max_k"});
    return std::make_unique<AggregationOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr),
        std::move(specs));
  });
}

// (k INT64, v DOUBLE, d DATE, s STRING) rows with periodic NULLs in every
// column and a columnar image attached, so one table feeds SeqScan (rows the
// consumer decodes) and ColumnScan (columns it publishes).
std::unique_ptr<Table> MakeNullableTable(size_t n) {
  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"d", DataType::kDate},
                 {"s", DataType::kString}});
  auto table = std::make_unique<Table>("n", schema);
  const char* kVocab[] = {"pear", "apple", "fig", "kiwi", "lime"};
  for (size_t i = 0; i < n; ++i) {
    const int64_t x = static_cast<int64_t>((i * 7919) % 1009) - 500;
    Value k = i % 7 == 3 ? Value::Null(DataType::kInt64) : Value::Int64(x);
    Value v = i % 5 == 1 ? Value::Null(DataType::kDouble)
                         : Value::Double(static_cast<double>(x) / 3.0 + 0.1);
    Value d = i % 11 == 4 ? Value::Null(DataType::kDate)
                          : Value::Date(9000 + (x % 400));
    Value str = i % 13 == 6 ? Value::Null(DataType::kString)
                            : Value::String(kVocab[i % 5]);
    table->AppendRow({k, v, d, str});
  }
  table->AttachColumnar(ColumnarTable::Build(*table));
  return table;
}

// All six aggregate functions over the int, double and date columns, plus
// an arithmetic argument.
std::vector<AggSpec> AllAggSpecs(const Schema& s) {
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
  for (const char* col : {"k", "v", "d"}) {
    const std::string name = col;
    specs.push_back(AggSpec{AggFunc::kCount, Col(s, name), "count_" + name});
    specs.push_back(AggSpec{AggFunc::kSum, Col(s, name), "sum_" + name});
    specs.push_back(AggSpec{AggFunc::kAvg, Col(s, name), "avg_" + name});
    specs.push_back(AggSpec{AggFunc::kMin, Col(s, name), "min_" + name});
    specs.push_back(AggSpec{AggFunc::kMax, Col(s, name), "max_" + name});
  }
  specs.push_back(AggSpec{
      AggFunc::kSum,
      Bin(BinaryOp::kMul, Col(s, "v"),
          Bin(BinaryOp::kSub, Lit(Value::Double(1.0)), Col(s, "k"))),
      "sum_expr"});
  return specs;
}

// Scalar aggregation at width 1 over SeqScan (the reference) against the
// same aggregates at the test width over SeqScan and over ColumnScan.
// `make_specs` builds the aggregate list; `pred` (may be null) filters the
// scan.
template <typename SpecFactory>
void CheckScalarAgg(Table* table, SpecFactory make_specs, const Expression* pred,
                    size_t width, bool expect_compiled) {
  auto clone = [pred] { return pred != nullptr ? pred->Clone() : nullptr; };
  AggregationOperator reference(
      std::make_unique<SeqScanOperator>(table, clone()), make_specs());
  auto expected = RunPlan(&reference);
  ASSERT_EQ(expected.size(), 1u);

  std::vector<OperatorPtr> inputs;
  inputs.push_back(std::make_unique<SeqScanOperator>(table, clone()));
  inputs.push_back(std::make_unique<ColumnScanOperator>(table, clone()));
  for (OperatorPtr& input : inputs) {
    const std::string label = input->label();
    auto agg = std::make_unique<AggregationOperator>(std::move(input),
                                                     make_specs());
    agg->set_batch_size(width);
    EXPECT_EQ(agg->args_compiled(), expect_compiled) << label;
    OperatorPtr plan = testutil::ContractChecked(std::move(agg));
    SCOPED_TRACE(label);
    ExpectSameRows(expected, RunPlanBatched(plan.get(), width));
  }
}

TEST_P(BatchEquivalenceTest, ScalarAggregationAllFunctionsWithNulls) {
  auto table = MakeNullableTable(2500);
  const Schema& s = table->schema();
  CheckScalarAgg(table.get(), [&] { return AllAggSpecs(s); }, nullptr,
                 batch(), /*expect_compiled=*/true);
  // A filtered scan: ColumnScan publishes compacted survivor columns.
  ExprPtr pred = Bin(BinaryOp::kLt, Col(s, "v"), Lit(Value::Double(40.0)));
  CheckScalarAgg(table.get(), [&] { return AllAggSpecs(s); }, pred.get(),
                 batch(), /*expect_compiled=*/true);
}

TEST_P(BatchEquivalenceTest, ScalarAggregationEmptyInput) {
  auto table = MakeNullableTable(300);
  const Schema& s = table->schema();
  ExprPtr none = Bin(BinaryOp::kLt, Col(s, "k"), Lit(Value::Int64(-100000)));
  CheckScalarAgg(table.get(), [&] { return AllAggSpecs(s); }, none.get(),
                 batch(), /*expect_compiled=*/true);
  // COUNT(*) and COUNT are 0; every other aggregate is NULL.
  AggregationOperator agg(
      std::make_unique<ColumnScanOperator>(table.get(), none->Clone()),
      AllAggSpecs(s));
  agg.set_batch_size(batch());
  auto rows = RunPlanBatched(&agg, batch());
  ASSERT_EQ(rows.size(), 1u);
  const Schema& out = agg.output_schema();
  for (size_t c = 0; c < out.num_columns(); ++c) {
    const std::string& name = out.column(c).name;
    if (name == "c" || name.rfind("count_", 0) == 0) {
      EXPECT_TRUE(rows[0][c] == Value::Int64(0)) << name;
    } else {
      EXPECT_TRUE(rows[0][c].is_null()) << name;
    }
  }
}

TEST_P(BatchEquivalenceTest, ScalarAggregationStringArgumentFallsBack) {
  // String MIN/MAX never compile, so the whole batch goes through the
  // interpreter per row.
  auto table = MakeNullableTable(1500);
  const Schema& s = table->schema();
  auto specs = [&] {
    std::vector<AggSpec> out;
    out.push_back(AggSpec{AggFunc::kMin, Col(s, "s"), "min_s"});
    out.push_back(AggSpec{AggFunc::kMax, Col(s, "s"), "max_s"});
    out.push_back(AggSpec{AggFunc::kCount, Col(s, "s"), "count_s"});
    out.push_back(AggSpec{AggFunc::kSum, Col(s, "v"), "sum_v"});
    out.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
    return out;
  };
  CheckScalarAgg(table.get(), specs, nullptr, batch(),
                 /*expect_compiled=*/false);
}

TEST_P(BatchEquivalenceTest, ScalarAggregationOverJoin) {
  // A join publishes no columns: the aggregate decodes its arguments from
  // the joined rows.
  auto probe = MakeNullableTable(1200);
  std::vector<std::pair<int64_t, double>> build_rows;
  for (int64_t k = -500; k < 509; k += 3) {
    build_rows.emplace_back(k, static_cast<double>(k) * 0.25);
  }
  auto build = MakeKvTable("build", build_rows);
  const Schema& ps = probe->schema();
  const Schema& bs = build->schema();
  // Joined row: probe (k, v, d, s) then build (k, v).
  auto make_plan = [&](size_t width) {
    auto join = std::make_unique<HashJoinOperator>(
        std::make_unique<SeqScanOperator>(probe.get(), nullptr),
        std::make_unique<SeqScanOperator>(build.get(), nullptr), Col(ps, "k"),
        Col(bs, "k"));
    std::vector<AggSpec> specs;
    specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
    specs.push_back(AggSpec{
        AggFunc::kSum,
        Bin(BinaryOp::kMul, MakeColumnRefUnchecked(1, DataType::kDouble, "v"),
            MakeColumnRefUnchecked(5, DataType::kDouble, "bv")),
        "sum_prod"});
    specs.push_back(AggSpec{AggFunc::kAvg,
                            MakeColumnRefUnchecked(1, DataType::kDouble, "v"),
                            "avg_v"});
    specs.push_back(AggSpec{AggFunc::kMin,
                            MakeColumnRefUnchecked(2, DataType::kDate, "d"),
                            "min_d"});
    specs.push_back(AggSpec{AggFunc::kMax,
                            MakeColumnRefUnchecked(0, DataType::kInt64, "k"),
                            "max_k"});
    OperatorPtr plan = std::make_unique<AggregationOperator>(
        std::move(join), std::move(specs));
    SetPlanWidth(plan.get(), width);
    return plan;
  };
  auto expected = RunPlan(make_plan(1).get());
  ASSERT_EQ(expected.size(), 1u);
  ExpectSameRows(expected, RunPlanBatched(make_plan(batch()).get(),
                                               batch()));
}

TEST_P(BatchEquivalenceTest, HashJoinBatchedProbe) {
  auto probe_table = MakeKvTable("probe", TestRows());
  std::vector<std::pair<int64_t, double>> build_rows;
  for (int64_t k = 0; k < 37; k += 2) {  // Some probe keys unmatched.
    build_rows.emplace_back(k, 1000.0 + static_cast<double>(k));
  }
  auto build_table = MakeKvTable("build", build_rows);
  const Schema& ps = probe_table->schema();
  const Schema& bs = build_table->schema();
  auto make_join = [&](size_t probe_batch) {
    auto join = std::make_unique<HashJoinOperator>(
        std::make_unique<SeqScanOperator>(probe_table.get(), nullptr),
        std::make_unique<SeqScanOperator>(build_table.get(), nullptr),
        Col(ps, "k"), Col(bs, "k"));
    join->set_batch_size(probe_batch);
    return join;
  };
  // The batched probe must be invisible at both drain interfaces.
  auto expected = RunPlan(make_join(1).get());
  auto batched_tuple_drain = RunPlan(make_join(batch()).get());
  ExpectSameRows(expected, batched_tuple_drain);
  auto batched_batch_drain = RunPlanBatched(make_join(batch()).get(), batch());
  ExpectSameRows(expected, batched_batch_drain);
}

TEST_P(BatchEquivalenceTest, HashAggregationBatchedLoad) {
  auto table = MakeKvTable("t", TestRows());
  const Schema& s = table->schema();
  auto make_agg = [&](size_t load_batch) {
    std::vector<GroupKeyExpr> groups;
    groups.push_back(GroupKeyExpr{Col(s, "k"), "k"});
    std::vector<AggSpec> specs;
    specs.push_back(AggSpec{AggFunc::kSum, Col(s, "v"), "sum_v"});
    specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
    auto agg = std::make_unique<HashAggregationOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr),
        std::move(groups), std::move(specs));
    agg->set_batch_size(load_batch);
    return agg;
  };
  auto expected = RunPlan(make_agg(1).get());
  ExpectSameRows(expected, RunPlan(make_agg(batch()).get()));
  ExpectSameRows(expected, RunPlanBatched(make_agg(batch()).get(), batch()));
}

TEST_P(BatchEquivalenceTest, MixingNextAndNextBatchIsAllowed) {
  // The contract allows interleaving Next() and NextBatch() on one stream.
  auto table = MakeKvTable("t", TestRows());
  auto make_buffer = [&] {
    return std::make_unique<BufferOperator>(
        std::make_unique<SeqScanOperator>(table.get(), nullptr), 100);
  };
  auto expected = RunPlan(make_buffer().get());

  auto plan = make_buffer();
  ExecContext ctx;
  ASSERT_TRUE(plan->Open(&ctx).ok());
  std::vector<const uint8_t*> rows;
  std::vector<const uint8_t*> slice(batch());
  bool done = false;
  while (!done) {
    // One tuple, then one batch, until exhausted.
    const uint8_t* row = plan->Next();
    if (row == nullptr) break;
    rows.push_back(row);
    size_t n = plan->NextBatch(slice.data(), batch());
    if (n == 0) done = true;
    rows.insert(rows.end(), slice.begin(), slice.begin() + n);
  }
  auto actual = Decode(rows, plan->output_schema());
  plan->Close();
  ExpectSameRows(expected, actual);
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchEquivalenceTest,
                         ::testing::Values(1, 7, 256, 1024));

// Exchange plans: the planner's batch_size knob at parallel degrees 1/2/8
// must leave the result set unchanged (order-insensitive — worker
// interleaving is nondeterministic).
class ExchangeBatchEquivalenceTest : public ::testing::TestWithParam<size_t> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::TpchConfig config;
    config.scale_factor = 0.002;
    ASSERT_TRUE(tpch::LoadTpch(config, catalog_).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  OperatorPtr MustPlan(const std::string& sql, PlannerOptions options) {
    sql::Binder binder(catalog_);
    auto q = binder.BindSql(sql);
    EXPECT_TRUE(q.ok()) << q.status();
    PhysicalPlanner planner(catalog_, options);
    auto plan = planner.CreatePlan(*q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return std::move(*plan);
  }

  // Compares one aggregate row: doubles within a relative tolerance (the
  // parallel summation order differs from the serial plan in the last
  // ulp), everything else exactly.
  static void ExpectAggregateRowClose(const std::vector<Value>& expected,
                                      const std::vector<Value>& actual,
                                      size_t degree) {
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t c = 0; c < expected.size(); ++c) {
      const Value& a = expected[c];
      const Value& b = actual[c];
      ASSERT_EQ(a.is_null(), b.is_null());
      if (a.is_null()) continue;
      if (a.type() == DataType::kDouble) {
        double tolerance = 1e-9 * (1.0 + std::abs(a.double_value()));
        EXPECT_NEAR(a.double_value(), b.double_value(), tolerance)
            << "degree " << degree << " col " << c;
      } else {
        EXPECT_TRUE(a == b) << "degree " << degree << " col " << c << ": "
                            << a.ToString() << " vs " << b.ToString();
      }
    }
  }

  static Catalog* catalog_;
};

Catalog* ExchangeBatchEquivalenceTest::catalog_ = nullptr;

TEST_P(ExchangeBatchEquivalenceTest, ProjectionAcrossDegrees) {
  const char kSql[] =
      "SELECT l_orderkey, l_quantity FROM lineitem "
      "WHERE l_shipdate <= DATE '1998-09-02'";
  OperatorPtr serial = MustPlan(kSql, PlannerOptions{});
  auto expected = Canonical(RunPlan(serial.get()));
  for (size_t degree : {1u, 2u, 8u}) {
    PlannerOptions options;
    options.parallel_degree = degree;
    options.batch_size = GetParam();
    OperatorPtr plan = MustPlan(kSql, options);
    auto actual = Canonical(RunPlanBatched(plan.get(), GetParam()));
    EXPECT_EQ(expected, actual) << "degree " << degree;
  }
}

TEST_P(ExchangeBatchEquivalenceTest, Q6ScalarAggregateAcrossDegrees) {
  // Q6-shaped scalar aggregate: every worker fragment runs a partial
  // aggregate that pulls its ColumnScan in batches.
  const char kSql[] =
      "SELECT SUM(l_extendedprice * l_discount) AS revenue, COUNT(*) AS n, "
      "MIN(l_shipdate) AS first_ship, MAX(l_quantity) AS max_qty, "
      "AVG(l_discount) AS avg_disc FROM lineitem "
      "WHERE l_shipdate >= DATE '1994-01-01' "
      "AND l_shipdate < DATE '1995-01-01' "
      "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24";
  OperatorPtr serial = MustPlan(kSql, PlannerOptions{});
  auto expected = RunPlan(serial.get());
  ASSERT_EQ(expected.size(), 1u);
  ASSERT_FALSE(expected[0][1] == Value::Int64(0));
  for (size_t degree : {1u, 2u, 8u}) {
    PlannerOptions options;
    options.parallel_degree = degree;
    options.batch_size = GetParam();
    OperatorPtr plan = MustPlan(kSql, options);
    auto actual = RunPlanBatched(plan.get(), GetParam());
    ASSERT_EQ(actual.size(), 1u) << "degree " << degree;
    ExpectAggregateRowClose(expected[0], actual[0], degree);
  }
}

TEST_P(ExchangeBatchEquivalenceTest, JoinAggregateAcrossDegrees) {
  const char kSql[] =
      "SELECT SUM(o_totalprice), COUNT(*) FROM lineitem, orders "
      "WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1998-09-02'";
  OperatorPtr serial = MustPlan(kSql, PlannerOptions{});
  auto expected = RunPlan(serial.get());
  ASSERT_EQ(expected.size(), 1u);
  for (size_t degree : {1u, 2u, 8u}) {
    PlannerOptions options;
    options.parallel_degree = degree;
    options.batch_size = GetParam();
    options.join_strategy = JoinStrategy::kHashJoin;
    OperatorPtr plan = MustPlan(kSql, options);
    auto actual = RunPlanBatched(plan.get(), GetParam());
    ASSERT_EQ(actual.size(), 1u) << "degree " << degree;
    ExpectAggregateRowClose(expected[0], actual[0], degree);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ExchangeBatchEquivalenceTest,
                         ::testing::Values(1, 7, 256, 1024));

}  // namespace
}  // namespace bufferdb
