#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/aggregation.h"
#include "exec/hash_aggregation.h"
#include "exec/operator.h"
#include "exec/row_batch_decoder.h"
#include "expr/vector_eval.h"

namespace bufferdb {

/// Grouped aggregation over input *sorted by the group keys*: emits a group
/// as soon as the key changes. Unlike HashAggregation it needs no hash
/// table and — unlike the blocking Sort that usually feeds it — it is a
/// pipelined operator that participates in execution groups. Output columns
/// are the group keys followed by the aggregates, in SELECT order.
///
/// With `set_batch_size(n > 1)` and fully compiled key/argument
/// expressions, input is consumed through NextBatch and the group keys and
/// aggregate arguments of the whole batch are evaluated column-at-a-time;
/// the group-change scan then walks the result vectors lane by lane.
class StreamAggregationOperator final : public Operator {
 public:
  StreamAggregationOperator(OperatorPtr child, std::vector<GroupKeyExpr> groups,
                            std::vector<AggSpec> specs);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kStreamAggregation;
  }
  std::string label() const override;

  /// True when every group key and aggregate argument compiled (test hook).
  bool keys_compiled() const { return keys_compiled_; }

 private:
  /// Builds the output row for the finished group.
  const uint8_t* EmitGroup();
  /// Batched drive loop over the kernel-program result vectors.
  const uint8_t* NextVectorized();

  std::vector<GroupKeyExpr> groups_;
  std::vector<AggSpec> specs_;
  Schema output_schema_;

  std::vector<Value> current_keys_;
  std::vector<AggAccumulator> accs_;
  bool group_open_ = false;
  bool input_done_ = false;

  // Vectorized-path state (active when batch_size() > 1 and
  // keys_compiled_).
  std::vector<std::unique_ptr<CompiledExpr>> group_compiled_;
  std::vector<std::unique_ptr<CompiledExpr>> arg_compiled_;
  bool keys_compiled_ = false;
  std::vector<int> decode_cols_;
  std::vector<const uint8_t*> batch_rows_;
  VectorBatch vbatch_;
  std::vector<const ColumnVector*> gvecs_;
  std::vector<const ColumnVector*> avecs_;
  std::vector<Value> lane_keys_;
  size_t pos_ = 0;    // Next lane of the current batch to absorb.
  size_t count_ = 0;  // Lanes in the current batch.
};

}  // namespace bufferdb
