// Google-benchmark microbenchmarks: real (wall-clock) per-tuple overhead of
// the buffer operator on this host, without the CPU simulator. Supports the
// paper's claim that the buffer operator is light-weight.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/buffer_operator.h"
#include "exec/aggregation.h"
#include "exec/seq_scan.h"
#include "profile/calibration_queries.h"

namespace bufferdb {
namespace {

// Set by --smoke (CI bench-bitrot check): shrink the table and cut
// measurement time so the whole binary finishes in a couple of seconds.
bool g_smoke = false;

Table* SharedItems() {
  static Table* table =
      profile::BuildSyntheticItems(g_smoke ? 10000 : 100000, /*seed=*/99)
          .release();
  return table;
}

OperatorPtr MakeCountPlan(Table* table, size_t buffer_size) {
  OperatorPtr plan = std::make_unique<SeqScanOperator>(table, nullptr);
  if (buffer_size > 0) {
    plan = std::make_unique<BufferOperator>(std::move(plan), buffer_size);
  }
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "c"});
  return std::make_unique<AggregationOperator>(std::move(plan),
                                               std::move(specs));
}

void BM_ScanAggregate(benchmark::State& state) {
  Table* table = SharedItems();
  for (auto _ : state) {
    OperatorPtr plan = MakeCountPlan(table, 0);
    ExecContext ctx;
    auto rows = ExecutePlan(plan.get(), &ctx);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table->num_rows()));
}
BENCHMARK(BM_ScanAggregate);

void BM_ScanAggregateBuffered(benchmark::State& state) {
  Table* table = SharedItems();
  size_t buffer_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    OperatorPtr plan = MakeCountPlan(table, buffer_size);
    ExecContext ctx;
    auto rows = ExecutePlan(plan.get(), &ctx);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table->num_rows()));
}
BENCHMARK(BM_ScanAggregateBuffered)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BufferRefillOnly(benchmark::State& state) {
  Table* table = SharedItems();
  for (auto _ : state) {
    BufferOperator buffer(std::make_unique<SeqScanOperator>(table, nullptr),
                          static_cast<size_t>(state.range(0)));
    ExecContext ctx;
    if (!buffer.Open(&ctx).ok()) state.SkipWithError("open failed");
    while (buffer.Next() != nullptr) {
    }
    buffer.Close();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table->num_rows()));
}
BENCHMARK(BM_BufferRefillOnly)->Arg(1)->Arg(1000);

void BM_CopyingBuffer(benchmark::State& state) {
  Table* table = SharedItems();
  for (auto _ : state) {
    BufferOperator buffer(std::make_unique<SeqScanOperator>(table, nullptr),
                          1000, /*copy_tuples=*/true);
    ExecContext ctx;
    if (!buffer.Open(&ctx).ok()) state.SkipWithError("open failed");
    while (buffer.Next() != nullptr) {
    }
    buffer.Close();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table->num_rows()));
}
BENCHMARK(BM_CopyingBuffer);

}  // namespace
}  // namespace bufferdb

// BENCHMARK_MAIN(), plus a --smoke flag google-benchmark doesn't know:
// strip it from argv and inject a tiny --benchmark_min_time instead. The
// --benchmark_* flags belong to google-benchmark, so the shared bench parser
// sees only the rest.
int main(int argc, char** argv) {
  std::vector<char*> own_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) != 0) {
      own_args.push_back(argv[i]);
    }
  }
  bufferdb::bench::PrintJsonHeader(
      "micro_buffer",
      bufferdb::bench::ScaleFactorFromArgs(static_cast<int>(own_args.size()),
                                           own_args.data()));
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      bufferdb::g_smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  static char min_time[] = "--benchmark_min_time=0.01";
  if (bufferdb::g_smoke) args.push_back(min_time);
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
