// Tests for the extensions beyond the paper's core: batched index-probe
// join (the authors' companion work) and .tbl import/export.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "core/buffered_index_join.h"
#include "exec/nested_loop_join.h"
#include "exec/seq_scan.h"
#include "sim/sim_cpu.h"
#include "test_util.h"
#include "tpch/tbl_io.h"
#include "tpch/tpch_gen.h"

namespace bufferdb {
namespace {

using testutil::Canonical;
using testutil::Col;
using testutil::MakeKvTable;
using testutil::RunPlan;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class BufferedIndexJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<std::pair<int64_t, double>> inner_rows;
    for (int64_t i = 0; i < 300; ++i) inner_rows.push_back({i % 120, i * 1.0});
    ASSERT_TRUE(catalog_.AddTable(MakeKvTable("inner", inner_rows)).ok());
    ASSERT_TRUE(catalog_.CreateIndex("inner_k", "inner", "k").ok());
    index_ = catalog_.GetIndex("inner_k");

    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
      outer_rows_.push_back({rng.Uniform(0, 150), i * 0.5});
    }
    outer_ = MakeKvTable("outer", outer_rows_);
  }

  std::vector<std::string> Expected() {
    auto inner_scan = std::make_unique<IndexScanOperator>(
        index_, std::nullopt, std::nullopt, nullptr);
    IndexNestLoopJoinOperator join(
        std::make_unique<SeqScanOperator>(outer_.get(), nullptr),
        std::move(inner_scan), Col(outer_->schema(), "k"));
    return Canonical(RunPlan(&join));
  }

  Catalog catalog_;
  const IndexInfo* index_ = nullptr;
  std::vector<std::pair<int64_t, double>> outer_rows_;
  std::unique_ptr<Table> outer_;
};

TEST_F(BufferedIndexJoinTest, MatchesIndexNestLoopAsMultiset) {
  BufferedIndexJoinOperator join(
      std::make_unique<SeqScanOperator>(outer_.get(), nullptr), index_,
      Col(outer_->schema(), "k"), /*batch_size=*/64);
  EXPECT_EQ(Canonical(RunPlan(&join)), Expected());
  EXPECT_EQ(join.batches(), 8u);  // ceil(500 / 64); stats survive Close.
}

TEST_F(BufferedIndexJoinTest, BatchSizeSweep) {
  auto expected = Expected();
  for (size_t batch : {1u, 2u, 7u, 100u, 500u, 5000u}) {
    BufferedIndexJoinOperator join(
        std::make_unique<SeqScanOperator>(outer_.get(), nullptr), index_,
        Col(outer_->schema(), "k"), batch);
    EXPECT_EQ(Canonical(RunPlan(&join)), expected) << "batch " << batch;
  }
}

TEST_F(BufferedIndexJoinTest, WithinBatchOutputIsKeySorted) {
  BufferedIndexJoinOperator join(
      std::make_unique<SeqScanOperator>(outer_.get(), nullptr), index_,
      Col(outer_->schema(), "k"), /*batch_size=*/10000);  // One batch.
  auto rows = RunPlan(&join);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1][0].int64_value(), rows[i][0].int64_value());
  }
}

TEST_F(BufferedIndexJoinTest, NullOuterKeysSkipped) {
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}});
  Table outer("o", schema);
  outer.AppendRow({Value::Null(DataType::kInt64), Value::Double(0)});
  outer.AppendRow({Value::Int64(1), Value::Double(1)});
  BufferedIndexJoinOperator join(
      std::make_unique<SeqScanOperator>(&outer, nullptr), index_,
      Col(schema, "k"), 10);
  auto rows = RunPlan(&join);
  for (const auto& row : rows) EXPECT_EQ(row[0], Value::Int64(1));
}

TEST_F(BufferedIndexJoinTest, ReducesIndexCodeInterleavingUnderSim) {
  auto run = [this](bool batched) {
    sim::SimCpu cpu;
    ExecContext ctx;
    ctx.cpu = &cpu;
    if (batched) {
      BufferedIndexJoinOperator join(
          std::make_unique<SeqScanOperator>(outer_.get(), nullptr), index_,
          Col(outer_->schema(), "k"), 1000);
      auto rows = ExecutePlan(&join, &ctx);
      EXPECT_TRUE(rows.ok());
    } else {
      auto inner_scan = std::make_unique<IndexScanOperator>(
          index_, std::nullopt, std::nullopt, nullptr);
      IndexNestLoopJoinOperator join(
          std::make_unique<SeqScanOperator>(outer_.get(), nullptr),
          std::move(inner_scan), Col(outer_->schema(), "k"));
      auto rows = ExecutePlan(&join, &ctx);
      EXPECT_TRUE(rows.ok());
    }
    return cpu.counters();
  };
  sim::SimCounters plain = run(false);
  sim::SimCounters batched = run(true);
  EXPECT_LT(batched.l1i_misses, plain.l1i_misses);
}

TEST(TblIoTest, RoundTripAllTypes) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"day", DataType::kDate},
                 {"b", DataType::kBool}});
  Table table("t", schema);
  table.AppendRow({Value::Int64(42), Value::Double(1.25),
                   Value::String("hello world"), Value::Date(10592),
                   Value::Bool(true)});
  table.AppendRow({Value::Null(DataType::kInt64), Value::Double(-3.5),
                   Value::String(""), Value::Null(DataType::kDate),
                   Value::Bool(false)});

  std::string path = TempPath("roundtrip.tbl");
  ASSERT_TRUE(tpch::WriteTbl(table, path).ok());
  auto loaded = tpch::ReadTbl("t2", schema, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ((*loaded)->num_rows(), 2u);
  TupleView row0 = (*loaded)->view(0);
  EXPECT_EQ(row0.GetInt64(0), 42);
  EXPECT_DOUBLE_EQ(row0.GetDouble(1), 1.25);
  EXPECT_EQ(row0.GetString(2), "hello world");
  EXPECT_EQ(row0.GetDate(3), 10592);
  EXPECT_TRUE(row0.GetBool(4));
  TupleView row1 = (*loaded)->view(1);
  EXPECT_TRUE(row1.IsNull(0));
  EXPECT_TRUE(row1.IsNull(3));
  // Empty string round-trips as NULL in the .tbl format (documented).
  std::remove(path.c_str());
}

TEST(TblIoTest, TpchLineitemRoundTrip) {
  Catalog catalog;
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  config.build_indexes = false;
  ASSERT_TRUE(tpch::LoadTpch(config, &catalog).ok());
  Table* lineitem = catalog.GetTable("lineitem");

  std::string path = TempPath("lineitem.tbl");
  ASSERT_TRUE(tpch::WriteTbl(*lineitem, path).ok());
  auto loaded = tpch::ReadTbl("lineitem2", lineitem->schema(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ((*loaded)->num_rows(), lineitem->num_rows());
  // Spot-check fields incl. doubles (rounded to 2 decimals by the format).
  for (size_t i = 0; i < lineitem->num_rows(); i += 131) {
    TupleView a = lineitem->view(i);
    TupleView b = (*loaded)->view(i);
    EXPECT_EQ(a.GetInt64(0), b.GetInt64(0));
    EXPECT_EQ(a.GetDate(10), b.GetDate(10));
    EXPECT_EQ(a.GetString(14), b.GetString(14));
    EXPECT_NEAR(a.GetDouble(5), b.GetDouble(5), 0.005);
  }
  std::remove(path.c_str());
}

TEST(TblIoTest, ReadRejectsMalformedLines) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  std::string path = TempPath("bad.tbl");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1|\n", f);  // Too few fields.
    std::fclose(f);
  }
  EXPECT_FALSE(tpch::ReadTbl("t", schema, path).ok());
  EXPECT_FALSE(tpch::ReadTbl("t", schema, TempPath("nope.tbl")).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bufferdb
