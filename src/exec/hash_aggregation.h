#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/aggregation.h"
#include "exec/operator.h"
#include "exec/row_batch_decoder.h"
#include "expr/expression.h"
#include "expr/vector_eval.h"

namespace bufferdb {

struct GroupKeyExpr {
  ExprPtr expr;
  std::string output_name;
};

/// GROUP BY aggregation over an in-memory hash table. Like scalar
/// aggregation it interleaves with its input per tuple (the hash table is
/// its own, separate data structure), so it participates in execution
/// groups; groups are emitted in first-seen order.
///
/// The table is a chained hash table over a flat group vector (bucket
/// directory of indices + per-group chain links), which makes the bucket
/// heads prefetchable: with `set_batch_size(n > 1)` the load phase consumes
/// the child through NextBatch, serializes and hashes the group keys of the
/// whole batch first while issuing software prefetches for each row's
/// bucket, then applies the accumulator updates — overlapping the random
/// DRAM misses of up to `n` independent group lookups. Default is the
/// paper-faithful tuple-at-a-time load.
class HashAggregationOperator final : public Operator {
 public:
  HashAggregationOperator(OperatorPtr child, std::vector<GroupKeyExpr> groups,
                          std::vector<AggSpec> specs);

  [[nodiscard]] Status Open(ExecContext* ctx) override;
  const uint8_t* Next() override;
  void Close() override;

  const Schema& output_schema() const override { return output_schema_; }
  sim::ModuleId module_id() const override {
    return sim::ModuleId::kHashAggregation;
  }
  std::string label() const override;

  size_t num_groups() const { return group_states_.size(); }

  /// True when every group key and aggregate argument compiled to a kernel
  /// program, so the batched load evaluates them column-at-a-time (test
  /// hook).
  bool keys_compiled() const { return keys_compiled_; }

 private:
  struct GroupState {
    uint64_t hash;
    std::string key;  // Serialized group-key bytes.
    int32_t next;     // Chain link into group_states_, or -1.
    std::vector<Value> group_values;
    std::vector<AggAccumulator> accs;
  };

  void Load();
  void LoadBatched();
  /// Finds or creates the group for `key`/`hash` and applies one row's
  /// accumulator updates.
  void AbsorbRow(const TupleView& view, const std::string& key,
                 uint64_t hash);
  GroupState* FindOrCreateGroup(const std::string& key, uint64_t hash,
                                const TupleView& view);
  /// Lane variants of the above, reading group/argument values out of the
  /// kernel-program result vectors (gvecs_/avecs_) instead of re-walking
  /// expression trees per row.
  void AbsorbLane(size_t lane, const std::string& key, uint64_t hash);
  GroupState* FindOrCreateGroupLane(const std::string& key, uint64_t hash,
                                    size_t lane);
  /// Serializes lane `lane` of the group-key result vectors byte-identically
  /// to SerializeKeyInto over the boxed values.
  void SerializeLaneInto(size_t lane, std::string* out) const;
  void Rehash();

  std::vector<GroupKeyExpr> groups_;
  std::vector<AggSpec> specs_;
  Schema output_schema_;

  std::vector<int32_t> buckets_;         // Power-of-two directory, -1 empty.
  std::vector<GroupState> group_states_; // Insertion order == emit order.
  size_t emit_pos_ = 0;
  bool loaded_ = false;

  std::vector<const uint8_t*> batch_rows_;  // LoadBatched scratch.
  std::vector<std::string> batch_keys_;
  std::vector<uint64_t> batch_hashes_;

  // Compiled kernel programs (plan-time): one per group key, one per
  // aggregate argument (nullptr for COUNT(*)). Used only when ALL of them
  // compiled (keys_compiled_), so a batch is evaluated entirely
  // column-at-a-time or entirely by the interpreter.
  std::vector<std::unique_ptr<CompiledExpr>> group_compiled_;
  std::vector<std::unique_ptr<CompiledExpr>> arg_compiled_;
  bool keys_compiled_ = false;
  std::vector<int> decode_cols_;  // Union of the programs' input columns.
  VectorBatch vbatch_;
  std::vector<const ColumnVector*> gvecs_;  // Group-key results per batch.
  std::vector<const ColumnVector*> avecs_;  // Agg-argument results.
};

}  // namespace bufferdb

