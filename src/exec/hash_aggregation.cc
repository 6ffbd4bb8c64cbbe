#include "exec/hash_aggregation.h"

#include <cstring>

#include "common/prefetch.h"
#include "expr/evaluator.h"
#include "storage/tuple.h"

namespace bufferdb {

namespace {

// Serializes group-key values into a hashable byte string. Appends to *out
// (cleared first) so batch loads can reuse one string per batch slot.
void SerializeKeyInto(const std::vector<Value>& values, std::string* out) {
  out->clear();
  for (const Value& v : values) {
    out->push_back(static_cast<char>(v.type()));
    out->push_back(v.is_null() ? 1 : 0);
    if (v.is_null()) continue;
    if (v.type() == DataType::kString) {
      uint32_t n = static_cast<uint32_t>(v.string_value().size());
      out->append(reinterpret_cast<const char*>(&n), 4);
      out->append(v.string_value());
    } else if (v.type() == DataType::kDouble) {
      double d = v.double_value();
      out->append(reinterpret_cast<const char*>(&d), 8);
    } else {
      int64_t i = v.int64_value();
      out->append(reinterpret_cast<const char*>(&i), 8);
    }
  }
}

// FNV-1a over the serialized key bytes.
uint64_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

HashAggregationOperator::HashAggregationOperator(OperatorPtr child,
                                                 std::vector<GroupKeyExpr> groups,
                                                 std::vector<AggSpec> specs)
    : groups_(std::move(groups)), specs_(std::move(specs)) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
  std::vector<Column> cols;
  for (GroupKeyExpr& g : groups_) {
    g.expr = FoldConstants(std::move(g.expr));
    cols.push_back(Column{g.output_name, g.expr->result_type()});
  }
  for (AggSpec& spec : specs_) {
    if (spec.arg != nullptr) spec.arg = FoldConstants(std::move(spec.arg));
    AppendAggFuncs(spec.func, &hot_funcs_);
    DataType arg_type =
        spec.arg != nullptr ? spec.arg->result_type() : DataType::kInt64;
    cols.push_back(Column{spec.output_name, AggOutputType(spec.func, arg_type)});
  }
  output_schema_ = Schema(std::move(cols));

  // Compile every group key and aggregate argument; the batched load goes
  // column-at-a-time only when all of them compiled (all-or-nothing).
  const Schema& in_schema = this->child(0)->output_schema();
  keys_compiled_ = true;
  for (const GroupKeyExpr& g : groups_) {
    group_compiled_.push_back(CompiledExpr::Compile(*g.expr, in_schema));
    keys_compiled_ = keys_compiled_ && group_compiled_.back() != nullptr;
  }
  for (const AggSpec& spec : specs_) {
    if (spec.arg == nullptr) {
      arg_compiled_.push_back(nullptr);  // COUNT(*) takes no argument.
      continue;
    }
    arg_compiled_.push_back(CompiledExpr::Compile(*spec.arg, in_schema));
    keys_compiled_ = keys_compiled_ && arg_compiled_.back() != nullptr;
  }
  if (keys_compiled_) {
    SetVectorBatchFuncs();
    for (const auto& programs : {&group_compiled_, &arg_compiled_}) {
      for (const auto& p : *programs) {
        if (p == nullptr) continue;
        for (int col : p->input_columns()) {
          bool present = false;
          for (int c : decode_cols_) present = present || c == col;
          if (!present) decode_cols_.push_back(col);
        }
      }
    }
  } else {
    group_compiled_.clear();
    arg_compiled_.clear();
  }
  gvecs_.resize(group_compiled_.size());
  avecs_.resize(arg_compiled_.size());
}

Status HashAggregationOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  buckets_.assign(1024, -1);
  group_states_.clear();
  emit_pos_ = 0;
  loaded_ = false;
  return child(0)->Open(ctx);
}

void HashAggregationOperator::Rehash() {
  buckets_.assign(buckets_.size() * 2, -1);
  const uint64_t mask = buckets_.size() - 1;
  for (int32_t i = 0; i < static_cast<int32_t>(group_states_.size()); ++i) {
    int32_t* bucket = &buckets_[group_states_[i].hash & mask];
    group_states_[i].next = *bucket;
    *bucket = i;
  }
}

HashAggregationOperator::GroupState* HashAggregationOperator::FindOrCreateGroup(
    const std::string& key, uint64_t hash, const TupleView& view) {
  int32_t* bucket = &buckets_[hash & (buckets_.size() - 1)];
  for (int32_t i = *bucket; i >= 0; i = group_states_[i].next) {
    GroupState& state = group_states_[i];
    if (state.hash == hash && state.key == key) return &state;
  }
  if (group_states_.size() + 1 > buckets_.size() / 2) {
    Rehash();
    bucket = &buckets_[hash & (buckets_.size() - 1)];
  }
  GroupState state;
  state.hash = hash;
  state.key = key;
  state.next = *bucket;
  state.group_values.resize(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    state.group_values[g] = groups_[g].expr->Evaluate(view);
  }
  state.accs.resize(specs_.size());
  group_states_.push_back(std::move(state));
  *bucket = static_cast<int32_t>(group_states_.size() - 1);
  return &group_states_.back();
}

void HashAggregationOperator::AbsorbRow(const TupleView& view,
                                        const std::string& key,
                                        uint64_t hash) {
  GroupState* state = FindOrCreateGroup(key, hash, view);
  ctx_->Touch(state, sizeof(GroupState));
  for (size_t i = 0; i < specs_.size(); ++i) {
    Value v = specs_[i].arg != nullptr ? specs_[i].arg->Evaluate(view) : Value();
    state->accs[i].Update(specs_[i].func, v);
  }
}

HashAggregationOperator::GroupState*
HashAggregationOperator::FindOrCreateGroupLane(const std::string& key,
                                               uint64_t hash, size_t lane) {
  int32_t* bucket = &buckets_[hash & (buckets_.size() - 1)];
  for (int32_t i = *bucket; i >= 0; i = group_states_[i].next) {
    GroupState& state = group_states_[i];
    if (state.hash == hash && state.key == key) return &state;
  }
  if (group_states_.size() + 1 > buckets_.size() / 2) {
    Rehash();
    bucket = &buckets_[hash & (buckets_.size() - 1)];
  }
  GroupState state;
  state.hash = hash;
  state.key = key;
  state.next = *bucket;
  state.group_values.resize(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    state.group_values[g] = LaneValue(*gvecs_[g], lane);
  }
  state.accs.resize(specs_.size());
  group_states_.push_back(std::move(state));
  *bucket = static_cast<int32_t>(group_states_.size() - 1);
  return &group_states_.back();
}

void HashAggregationOperator::AbsorbLane(size_t lane, const std::string& key,
                                         uint64_t hash) {
  GroupState* state = FindOrCreateGroupLane(key, hash, lane);
  ctx_->Touch(state, sizeof(GroupState));
  for (size_t i = 0; i < specs_.size(); ++i) {
    Value v = avecs_[i] != nullptr ? LaneValue(*avecs_[i], lane) : Value();
    state->accs[i].Update(specs_[i].func, v);
  }
}

void HashAggregationOperator::SerializeLaneInto(size_t lane,
                                                std::string* out) const {
  out->clear();
  for (const ColumnVector* v : gvecs_) {
    out->push_back(static_cast<char>(v->type));
    const bool is_null = v->null_data()[lane] != 0;
    out->push_back(is_null ? 1 : 0);
    if (is_null) continue;
    // Strings never compile, so every payload is a fixed 8 bytes.
    if (v->is_double()) {
      const double d = v->f64_data()[lane];
      out->append(reinterpret_cast<const char*>(&d), 8);
    } else {
      const int64_t i = v->i64_data()[lane];
      out->append(reinterpret_cast<const char*>(&i), 8);
    }
  }
}

void HashAggregationOperator::Load() {
  const Schema& in_schema = child(0)->output_schema();
  std::vector<Value> key_values(groups_.size());
  std::string key;
  while (const uint8_t* row = child(0)->Next()) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    TupleView view(row, &in_schema);
    for (size_t g = 0; g < groups_.size(); ++g) {
      key_values[g] = groups_[g].expr->Evaluate(view);
    }
    SerializeKeyInto(key_values, &key);
    AbsorbRow(view, key, HashKey(key));
  }
}

// Batch load: pass 1 serializes and hashes the group keys of the whole
// batch, prefetching each row's bucket head; pass 2 does the lookups and
// accumulator updates against buckets whose cache lines are already in
// flight. A rehash mid-batch only wastes the remaining prefetches.
void HashAggregationOperator::LoadBatched() {
  const Schema& in_schema = child(0)->output_schema();
  batch_rows_.resize(batch_size());
  batch_keys_.resize(batch_size());
  batch_hashes_.resize(batch_size());
  std::vector<Value> key_values(groups_.size());
  for (;;) {
    size_t n = child(0)->NextBatch(batch_rows_.data(), batch_size());
    if (n == 0) break;
    if (keys_compiled_) {
      // Column-at-a-time: one decode of the union of input columns feeds
      // every group-key and argument program; key serialization and the
      // accumulator updates then read the result vectors lane-wise.
      RowBatchDecoder::DecodeMissing(batch_rows_.data(), n, in_schema,
                                     decode_cols_, child(0)->BatchColumns(),
                                     &vbatch_);
      for (size_t g = 0; g < group_compiled_.size(); ++g) {
        gvecs_[g] = &group_compiled_[g]->Run(vbatch_);
      }
      for (size_t a = 0; a < arg_compiled_.size(); ++a) {
        avecs_[a] =
            arg_compiled_[a] != nullptr ? &arg_compiled_[a]->Run(vbatch_) : nullptr;
      }
      for (size_t i = 0; i < n; ++i) {
        SerializeLaneInto(i, &batch_keys_[i]);
        uint64_t h = HashKey(batch_keys_[i]);
        batch_hashes_[i] = h;
        PrefetchRead(&buckets_[h & (buckets_.size() - 1)]);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        TupleView view(batch_rows_[i], &in_schema);
        for (size_t g = 0; g < groups_.size(); ++g) {
          // LINT: allow-scalar-eval(fallback: some key/arg did not compile)
          key_values[g] = groups_[g].expr->Evaluate(view);
        }
        SerializeKeyInto(key_values, &batch_keys_[i]);
        uint64_t h = HashKey(batch_keys_[i]);
        batch_hashes_[i] = h;
        PrefetchRead(&buckets_[h & (buckets_.size() - 1)]);
      }
    }
    // By now the first rows' bucket lines have arrived: read the heads and
    // prefetch the group nodes they chain to, overlapping the second
    // dependent miss of each lookup as well.
    for (size_t i = 0; i < n; ++i) {
      int32_t head = buckets_[batch_hashes_[i] & (buckets_.size() - 1)];
      if (head >= 0) PrefetchRead(&group_states_[head]);
    }
    if (keys_compiled_) {
      for (size_t i = 0; i < n; ++i) {
        ctx_->ExecModule(module_id(), hot_funcs_batched());
        AbsorbLane(i, batch_keys_[i], batch_hashes_[i]);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        ctx_->ExecModule(module_id(), hot_funcs_);
        TupleView view(batch_rows_[i], &in_schema);
        AbsorbRow(view, batch_keys_[i], batch_hashes_[i]);
      }
    }
  }
}

const uint8_t* HashAggregationOperator::Next() {
  if (!loaded_) {
    if (batch_size() > 1) {
      LoadBatched();
    } else {
      Load();
    }
    loaded_ = true;
    emit_pos_ = 0;
  }
  ctx_->ExecModule(module_id(), hot_funcs_);
  if (emit_pos_ >= group_states_.size()) return nullptr;
  const GroupState& state = group_states_[emit_pos_++];
  TupleBuilder builder(&output_schema_);
  size_t col = 0;
  for (const Value& v : state.group_values) builder.Set(col++, v);
  for (size_t i = 0; i < specs_.size(); ++i) {
    builder.Set(col, state.accs[i].Final(specs_[i].func,
                                         output_schema_.column(col).type));
    ++col;
  }
  const uint8_t* out = builder.Finish(&ctx_->arena);
  ctx_->Touch(out, TupleView(out, &output_schema_).size_bytes());
  return out;
}

void HashAggregationOperator::Close() {
  buckets_.clear();
  group_states_.clear();
  emit_pos_ = 0;
  loaded_ = false;
  child(0)->Close();
}

std::string HashAggregationOperator::label() const {
  std::string out = "HashAgg(by ";
  for (size_t i = 0; i < groups_.size(); ++i) {
    if (i > 0) out += ",";
    out += groups_[i].output_name;
  }
  out += ")";
  return out;
}

}  // namespace bufferdb
