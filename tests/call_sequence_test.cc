#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "core/buffer_operator.h"
#include "exec/aggregation.h"
#include "exec/seq_scan.h"
#include "plan/physical_planner.h"
#include "profile/call_sequence.h"
#include "sql/binder.h"
#include "test_util.h"

namespace bufferdb {
namespace {

using testutil::Col;
using testutil::MakeKvTable;

// Runs Agg over Scan (optionally buffered) and returns the recorded module
// call sequence.
profile::CallSequenceRecorder Record(Table* table, size_t buffer_size) {
  OperatorPtr plan = std::make_unique<SeqScanOperator>(table, nullptr);
  if (buffer_size > 0) {
    plan = std::make_unique<BufferOperator>(std::move(plan), buffer_size);
  }
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
  AggregationOperator agg(std::move(plan), std::move(specs));

  profile::CallSequenceRecorder recorder;
  sim::SimCpu cpu;
  cpu.set_call_graph_sink(&recorder);
  ExecContext ctx;
  ctx.cpu = &cpu;
  auto rows = ExecutePlanRows(&agg, &ctx);
  EXPECT_TRUE(rows.ok());
  return recorder;
}

TEST(CallSequenceTest, UnbufferedPlanInterleavesPerTuple) {
  auto table = MakeKvTable("t", {{1, 1}, {2, 2}, {3, 3}});
  profile::CallSequenceRecorder rec = Record(table.get(), 0);
  // Fig. 1(a): PCPCPC... — scan (C, first appearance) then agg (P)
  // alternate for every tuple; the trailing calls handle end-of-stream.
  std::string seq = rec.Sequence();
  EXPECT_EQ(seq.substr(0, 6), "CPCPCP");
  EXPECT_GE(rec.Transitions(), 6u);
}

TEST(CallSequenceTest, PlannerWidthOnePlanInterleavesPerTuple) {
  // The paper's setting through the planner: a width-1 plan keeps the
  // per-tuple Scan/Agg interleaving, however batch-aware its operators are.
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(MakeKvTable("t", {{1, 1}, {2, 2}, {3, 3}, {4, 4}}))
                  .ok());
  sql::Binder binder(&catalog);
  auto query = binder.BindSql("SELECT COUNT(*), SUM(v) FROM t");
  ASSERT_TRUE(query.ok()) << query.status();
  PlannerOptions options;  // batch_size = 1.
  auto plan = PhysicalPlanner(&catalog, options).CreatePlan(*query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ((*plan)->module_id(), sim::ModuleId::kAggregation);

  profile::CallSequenceRecorder recorder;
  sim::SimCpu cpu;
  cpu.set_call_graph_sink(&recorder);
  ExecContext ctx;
  ctx.cpu = &cpu;
  ASSERT_TRUE(ExecutePlanRows(plan->get(), &ctx).ok());
  EXPECT_EQ(recorder.Sequence().substr(0, 8), "CPCPCPCP")
      << recorder.Sequence();
}

TEST(CallSequenceTest, BufferedPlanBatchesRuns) {
  std::vector<std::pair<int64_t, double>> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({i, 0});
  auto table = MakeKvTable("t", rows);
  profile::CallSequenceRecorder rec = Record(table.get(), 5);
  // Fig. 1(b): scans batch into runs of the buffer size; the parent and the
  // buffer alternate while draining.
  std::string seq = rec.Sequence();
  EXPECT_NE(seq.find("CCCCC"), std::string::npos) << seq;
  EXPECT_NE(seq.find('B'), std::string::npos) << seq;
}

TEST(CallSequenceTest, BufferingReducesScanAggTransitions) {
  std::vector<std::pair<int64_t, double>> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back({i, 0});
  auto table = MakeKvTable("t", rows);
  uint64_t unbuffered = Record(table.get(), 0).Transitions();
  // With the buffer, scan-runs happen once per refill; transitions between
  // the *scan* and everything else collapse by ~buffer_size even though
  // buffer<->agg alternation remains.
  profile::CallSequenceRecorder buffered = Record(table.get(), 100);
  std::string seq = buffered.Sequence();
  uint64_t scan_runs = 0;
  for (size_t i = 0; i < seq.size(); ++i) {
    if (seq[i] == 'C' && (i == 0 || seq[i - 1] != 'C')) ++scan_runs;
  }
  EXPECT_LE(scan_runs, 12u);          // ~1000/100 refills.
  EXPECT_GE(unbuffered, 2u * 1000u);  // Per-tuple alternation.
}

TEST(CallSequenceTest, CompressedFormatAndLegend) {
  auto table = MakeKvTable("t", {{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}});
  profile::CallSequenceRecorder rec = Record(table.get(), 5);
  std::string compressed = rec.Compressed(4);
  EXPECT_NE(compressed.find("C{5}"), std::string::npos) << compressed;
  std::string legend = rec.Legend();
  EXPECT_NE(legend.find("B = Buffer"), std::string::npos);
  EXPECT_NE(legend.find("C = Scan"), std::string::npos);
}

TEST(CallSequenceTest, CapsRecordingAtMaxCalls) {
  profile::CallSequenceRecorder rec(/*max_calls=*/4);
  sim::FuncId funcs[] = {sim::FuncId::kScanCore};
  for (int i = 0; i < 10; ++i) {
    rec.OnModuleCall(sim::ModuleId::kSeqScan, funcs);
  }
  EXPECT_EQ(rec.Sequence().size(), 4u);
  EXPECT_EQ(rec.total_calls(), 10u);
  EXPECT_NE(rec.Compressed().find("+6 calls"), std::string::npos);
}

TEST(CallSequenceTest, ResetClearsState) {
  profile::CallSequenceRecorder rec;
  sim::FuncId funcs[] = {sim::FuncId::kScanCore};
  rec.OnModuleCall(sim::ModuleId::kSeqScan, funcs);
  rec.Reset();
  EXPECT_EQ(rec.total_calls(), 0u);
  EXPECT_TRUE(rec.Sequence().empty());
}

}  // namespace
}  // namespace bufferdb
