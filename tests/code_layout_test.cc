#include <gtest/gtest.h>

#include "core/execution_group.h"
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "sim/code_layout.h"

namespace bufferdb::sim {
namespace {

uint64_t ModuleBytes(ModuleId module) {
  bufferdb::FuncSet set;
  set.AddAll(ModuleBaseFuncs(module));
  return set.TotalBytes();
}

// The calibrated layout reproduces the paper's Table 2 per-module footprints.
TEST(CodeLayoutTest, Table2ScanFootprints) {
  EXPECT_EQ(ModuleBytes(ModuleId::kSeqScan), 9000u);           // 9K
  EXPECT_EQ(ModuleBytes(ModuleId::kSeqScanFiltered), 13000u);  // 13K
}

TEST(CodeLayoutTest, Table2IndexAndSort) {
  EXPECT_EQ(ModuleBytes(ModuleId::kIndexScan), 14000u);  // 14K
  EXPECT_EQ(ModuleBytes(ModuleId::kSort), 14000u);       // 14K
}

TEST(CodeLayoutTest, Table2Joins) {
  EXPECT_EQ(ModuleBytes(ModuleId::kNestLoopJoin), 11000u);   // 11K
  EXPECT_EQ(ModuleBytes(ModuleId::kMergeJoin), 12000u);      // 12K
  EXPECT_EQ(ModuleBytes(ModuleId::kHashJoinBuild), 12000u);  // 12K
  EXPECT_EQ(ModuleBytes(ModuleId::kHashJoinProbe), 10000u);  // 10K
}

TEST(CodeLayoutTest, Table2AggregationBase) {
  EXPECT_EQ(ModuleBytes(ModuleId::kAggregation), 10000u);  // base 10K
}

TEST(CodeLayoutTest, Table2AggregateFunctionSizes) {
  const CodeLayout& layout = CodeLayout::Default();
  EXPECT_LT(layout.info(FuncId::kAggCount).size_bytes, 1000u);  // <1K
  EXPECT_EQ(layout.info(FuncId::kAggMin).size_bytes, 1600u);    // 1.6K
  EXPECT_EQ(layout.info(FuncId::kAggMax).size_bytes, 1600u);    // 1.6K
  EXPECT_EQ(layout.info(FuncId::kAggSum).size_bytes, 2700u);    // 2.7K
}

TEST(CodeLayoutTest, Table2BufferIsLightWeight) {
  EXPECT_LT(ModuleBytes(ModuleId::kBuffer), 1000u);  // <1K
}

TEST(CodeLayoutTest, FunctionsDoNotOverlapAndAreLineAligned) {
  const CodeLayout& layout = CodeLayout::Default();
  uint64_t prev_end = 0;
  for (int i = 0; i < kNumFuncIds; ++i) {
    const FuncInfo& f = layout.info(static_cast<FuncId>(i));
    EXPECT_GE(f.base_addr, prev_end) << f.name;
    EXPECT_EQ(f.base_addr % 64, 0u) << f.name;  // Line aligned.
    EXPECT_GT(f.branch_sites, 0u) << f.name;
    EXPECT_EQ(f.lines, (f.size_bytes + 63) / 64) << f.name;
    prev_end = CodeLayout::LineAddress(f, f.lines - 1) + 64;
  }
}

TEST(CodeLayoutTest, StridedLinesMapUniformlyAcrossL1Sets) {
  // The 29-line stride is coprime with the 32 sets of a 16KB/8-way/64B
  // cache: consecutive lines of a function hit consecutive-ish sets and a
  // function never piles onto one set.
  const CodeLayout& layout = CodeLayout::Default();
  const FuncInfo& f = layout.info(FuncId::kIndexCore);
  int per_set[32] = {0};
  for (uint32_t k = 0; k < f.lines; ++k) {
    per_set[(CodeLayout::LineAddress(f, k) / 64) % 32]++;
  }
  int max_load = 0, min_load = 1 << 30;
  for (int load : per_set) {
    max_load = std::max(max_load, load);
    min_load = std::min(min_load, load);
  }
  EXPECT_LE(max_load - min_load, 1);
}

TEST(CodeLayoutTest, LinesSpreadOverManyPages) {
  // The strided layout gives a module a page working set much larger than
  // its byte footprint / 4096 — the ITLB behaviour the paper measures.
  const CodeLayout& layout = CodeLayout::Default();
  const FuncInfo& f = layout.info(FuncId::kSortCore);  // 7000 bytes.
  std::set<uint64_t> pages;
  for (uint32_t k = 0; k < f.lines; ++k) {
    pages.insert(CodeLayout::LineAddress(f, k) / 4096);
  }
  EXPECT_GT(pages.size(), 40u);  // vs 2 pages if contiguous.
}

TEST(CodeLayoutTest, SharedFunctionsCountedOnceInCombination) {
  // Scan(pred) + Aggregation share exec_common and expr_arith; the combined
  // footprint must be smaller than the sum.
  bufferdb::FuncSet combined;
  combined.AddAll(ModuleBaseFuncs(ModuleId::kSeqScanFiltered));
  combined.AddAll(ModuleBaseFuncs(ModuleId::kAggregation));
  EXPECT_LT(combined.TotalBytes(),
            ModuleBytes(ModuleId::kSeqScanFiltered) +
                ModuleBytes(ModuleId::kAggregation));
  EXPECT_EQ(combined.TotalBytes(), 15000u);  // 13K + 10K - 8K shared.
}

TEST(CodeLayoutTest, Query1CombinedExceedsL1WhileQuery2Fits) {
  // The §7.2 footprint-analysis story: Query 2 (COUNT only) fits in a 16KB
  // trace cache together with a buffer operator; Query 1 (SUM/AVG/COUNT)
  // does not.
  bufferdb::FuncSet query2;
  query2.AddAll(ModuleBaseFuncs(ModuleId::kSeqScanFiltered));
  query2.AddAll(ModuleBaseFuncs(ModuleId::kAggregation));
  query2.Add(FuncId::kAggCount);
  query2.AddAll(ModuleBaseFuncs(ModuleId::kBuffer));
  EXPECT_LE(query2.TotalBytes(), 16384u);

  bufferdb::FuncSet query1 = query2;
  query1.Add(FuncId::kAggSum);
  query1.Add(FuncId::kAggAvgExtra);
  EXPECT_GT(query1.TotalBytes(), 16384u);
}

TEST(CodeLayoutTest, ModuleNamesAreStable) {
  EXPECT_STREQ(ModuleName(ModuleId::kSeqScanFiltered), "Scan(pred)");
  EXPECT_STREQ(ModuleName(ModuleId::kBuffer), "Buffer");
  EXPECT_STREQ(FuncName(FuncId::kExecCommon), "exec_common");
}

TEST(CodeLayoutTest, ModuleIdFromNameRoundTripsEveryModule) {
  // footprint_audit.py keys its manifest and calibration files on these
  // names; every id must round-trip and no two modules may share a name.
  std::set<std::string> seen;
  for (int m = 0; m < kNumModuleIds; ++m) {
    auto module = static_cast<ModuleId>(m);
    const char* name = ModuleName(module);
    EXPECT_TRUE(seen.insert(name).second) << name;
    ModuleId back;
    ASSERT_TRUE(ModuleIdFromName(name, &back)) << name;
    EXPECT_EQ(back, module) << name;
  }
  ModuleId out;
  EXPECT_FALSE(ModuleIdFromName("NoSuchModule", &out));
  EXPECT_FALSE(ModuleIdFromName("", &out));
  EXPECT_FALSE(ModuleIdFromName("scan", &out));  // Case-sensitive.
}

TEST(CodeLayoutTest, FuncIdFromNameRoundTripsEveryFunc) {
  std::set<std::string> seen;
  for (int f = 0; f < kNumFuncIds; ++f) {
    auto func = static_cast<FuncId>(f);
    const char* name = FuncName(func);
    EXPECT_TRUE(seen.insert(name).second) << name;
    FuncId back;
    ASSERT_TRUE(FuncIdFromName(name, &back)) << name;
    EXPECT_EQ(back, func) << name;
  }
  FuncId out;
  EXPECT_FALSE(FuncIdFromName("no_such_func", &out));
  EXPECT_FALSE(FuncIdFromName("", &out));
}

// Restores the built-in layout even when an EXPECT fails mid-test, so the
// Table-2 assertions above never observe a leftover calibration.
class CalibrationGuard {
 public:
  ~CalibrationGuard() { CodeLayout::ResetCalibration(); }
};

TEST(CodeLayoutTest, LoadCalibrationPinsFunctionAndModuleSizes) {
  CalibrationGuard guard;
  std::string error;
  ASSERT_TRUE(CodeLayout::LoadCalibrationText(
      "# audited footprints\n"
      "func scan_core 4096\n"
      "module Buffer 20400\n",
      &error))
      << error;
  const CodeLayout& layout = CodeLayout::Default();
  // A `func` line pins that function exactly (rounded to nothing: bytes are
  // taken verbatim), and derived line/branch-site counts follow.
  EXPECT_EQ(layout.info(FuncId::kScanCore).size_bytes, 4096u);
  EXPECT_EQ(layout.info(FuncId::kScanCore).lines, 64u);
  EXPECT_GT(layout.info(FuncId::kScanCore).branch_sites, 0u);
  // A `module` line retargets the module's shared-once byte total.
  bufferdb::FuncSet buffer_set;
  buffer_set.AddAll(ModuleBaseFuncs(ModuleId::kBuffer));
  EXPECT_NEAR(static_cast<double>(buffer_set.TotalBytes()), 20400.0, 64.0);
  // Layout invariants survive calibration.
  uint64_t prev_end = 0;
  for (int i = 0; i < kNumFuncIds; ++i) {
    const FuncInfo& f = layout.info(static_cast<FuncId>(i));
    EXPECT_GE(f.base_addr, prev_end) << f.name;
    EXPECT_EQ(f.base_addr % 64, 0u) << f.name;
    prev_end = CodeLayout::LineAddress(f, f.lines - 1) + 64;
  }

  CodeLayout::ResetCalibration();
  EXPECT_EQ(CodeLayout::Default().info(FuncId::kScanCore).size_bytes, 3500u);
}

TEST(CodeLayoutTest, LoadCalibrationRejectsBadInput) {
  CalibrationGuard guard;
  std::string error;
  // Unknown module name (the drift the audit's gate also catches).
  EXPECT_FALSE(CodeLayout::LoadCalibrationText("module Nope 1000\n", &error));
  EXPECT_NE(error.find("Nope"), std::string::npos) << error;
  // Unknown function name.
  EXPECT_FALSE(CodeLayout::LoadCalibrationText("func nope 1000\n", &error));
  // Malformed lines: missing size, non-numeric size, unknown directive.
  EXPECT_FALSE(CodeLayout::LoadCalibrationText("func scan_core\n", &error));
  EXPECT_FALSE(CodeLayout::LoadCalibrationText("func scan_core x\n", &error));
  EXPECT_FALSE(CodeLayout::LoadCalibrationText("resize Scan 9000\n", &error));
  // Non-positive sizes.
  EXPECT_FALSE(CodeLayout::LoadCalibrationText("func scan_core 0\n", &error));
  EXPECT_FALSE(
      CodeLayout::LoadCalibrationText("module Buffer -5\n", &error));
  // A failed load must not install a partial layout.
  EXPECT_EQ(CodeLayout::Default().info(FuncId::kScanCore).size_bytes, 3500u);
}

TEST(CodeLayoutTest, LoadCalibrationMissingFileFails) {
  CalibrationGuard guard;
  std::string error;
  double threshold = -1;
  EXPECT_FALSE(CodeLayout::LoadCalibration("/nonexistent/calibration.txt",
                                           &error, &threshold));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(threshold, -1);
}

// The cardinality threshold travels in the same file as the footprints
// (what examples/calibrate_system writes), so one load restores both.
TEST(CodeLayoutTest, LoadCalibrationRoundTripsThreshold) {
  CalibrationGuard guard;
  const std::string path =
      std::string(::testing::TempDir()) + "/calibration_threshold.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("func scan_core 4096\nthreshold 250\n", f);
    std::fclose(f);
  }
  std::string error;
  double threshold = -1;
  ASSERT_TRUE(CodeLayout::LoadCalibration(path, &error, &threshold)) << error;
  std::remove(path.c_str());
  EXPECT_EQ(threshold, 250);
  EXPECT_EQ(CodeLayout::Default().info(FuncId::kScanCore).size_bytes, 4096u);
  // Without a threshold line the out-parameter is left untouched, and
  // callers that pass none (the benches' --calibration=) still load it.
  threshold = -1;
  ASSERT_TRUE(CodeLayout::LoadCalibrationText("func scan_core 2048\n", &error,
                                              &threshold))
      << error;
  EXPECT_EQ(threshold, -1);
  ASSERT_TRUE(CodeLayout::LoadCalibrationText("threshold 64\n", &error));
  CodeLayout::ResetCalibration();
}

TEST(CodeLayoutTest, LoadCalibrationRejectsBadThreshold) {
  CalibrationGuard guard;
  std::string error;
  double threshold = -1;
  for (const char* text :
       {"threshold 0\n", "threshold -3\n", "threshold x\n", "threshold\n",
        "threshold 5 6\n", "func scan_core 4096\nthreshold 0\n"}) {
    EXPECT_FALSE(CodeLayout::LoadCalibrationText(text, &error, &threshold))
        << text;
    EXPECT_NE(error.find("threshold"), std::string::npos) << error;
  }
  // A failed load reports nothing and installs nothing.
  EXPECT_EQ(threshold, -1);
  EXPECT_EQ(CodeLayout::Default().info(FuncId::kScanCore).size_bytes, 3500u);
}

TEST(FuncSetTest, BasicSetOperations) {
  bufferdb::FuncSet set;
  EXPECT_TRUE(set.empty());
  set.Add(FuncId::kScanCore);
  set.Add(FuncId::kScanCore);
  EXPECT_EQ(set.count(), 1u);
  EXPECT_TRUE(set.Contains(FuncId::kScanCore));
  EXPECT_FALSE(set.Contains(FuncId::kSortCore));

  bufferdb::FuncSet other;
  other.Add(FuncId::kSortCore);
  set.UnionWith(other);
  EXPECT_EQ(set.count(), 2u);
  EXPECT_EQ(set.ToVector().size(), 2u);
}

}  // namespace
}  // namespace bufferdb::sim
