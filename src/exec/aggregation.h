#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "expr/expression.h"
#include "expr/vector_eval.h"

namespace bufferdb {

enum class AggFunc : uint8_t {
  kCountStar,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
};

const char* AggFuncName(AggFunc func);

/// One aggregate in the SELECT list, e.g. SUM(l_extendedprice * (1 - ...)).
struct AggSpec {
  AggFunc func;
  ExprPtr arg;  // Null for COUNT(*).
  std::string output_name;
};

/// Output column type of an aggregate over an argument of type `arg_type`.
DataType AggOutputType(AggFunc func, DataType arg_type);

/// Running state for a single aggregate (SQL semantics: NULL inputs are
/// ignored; empty input yields NULL except COUNT which yields 0).
struct AggAccumulator {
  int64_t count = 0;
  int64_t int_sum = 0;
  double double_sum = 0;
  Value extremum;  // MIN/MAX running value.

  void Update(AggFunc func, const Value& v);
  Value Final(AggFunc func, DataType output_type) const;
};

/// Scalar (ungrouped) aggregation: consumes the whole input, emits exactly
/// one row. Instruction-wise it interleaves with its input per tuple, so the
/// refiner treats it as part of the pipeline (it is *not* a pipeline breaker
/// in the paper's sense; compare Fig. 5 where Scan and Aggregation form
/// candidate execution groups).
///
/// With `set_batch_size(n > 1)` the input is drained through NextBatch.
/// When every argument compiled to a kernel program, each program runs once
/// per batch over the decoded (or child-published) columns and its result
/// vector is folded into the accumulators lane by lane in row order, so the
/// sums are bit-identical to the tuple-at-a-time loop; otherwise each row
/// of the batch goes through the interpreter.
class AggregationOperator final : public Operator {
 public:
  AggregationOperator(OperatorPtr child, std::vector<AggSpec> specs);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kAggregation;
  }
  std::string label() const override;

  const std::vector<AggSpec>& specs() const { return specs_; }

  /// True when every aggregate argument compiled, so the batched load
  /// evaluates them column-at-a-time (test hook).
  bool args_compiled() const { return args_compiled_; }

 private:
  /// Drains the child through NextBatch into `accs`.
  void LoadBatched(std::vector<AggAccumulator>* accs);
  /// Folds the `n` lanes of one argument's result vector into `acc`;
  /// `arg` is null for COUNT(*).
  static void FoldLanes(AggFunc func, const ColumnVector* arg, size_t n,
                        AggAccumulator* acc);

  std::vector<AggSpec> specs_;
  Schema output_schema_;
  bool done_ = false;

  // Compiled argument programs (plan-time), one per spec; nullptr for
  // COUNT(*). Used only when every argument compiled (args_compiled_).
  std::vector<std::unique_ptr<CompiledExpr>> arg_compiled_;
  bool args_compiled_ = false;
  std::vector<int> decode_cols_;  // Union of the programs' input columns.
  std::vector<const uint8_t*> batch_rows_;
  VectorBatch vbatch_;
};

/// Appends the simulator functions an aggregate contributes to the module
/// footprint (AVG adds SUM's code plus its own, per Table 2 calibration).
void AppendAggFuncs(AggFunc func, std::vector<sim::FuncId>* funcs);

}  // namespace bufferdb

