#include "exec/aggregation.h"

#include <algorithm>

#include "exec/row_batch_decoder.h"
#include "expr/evaluator.h"
#include "storage/tuple.h"

namespace bufferdb {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCountStar:
      return "COUNT(*)";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

DataType AggOutputType(AggFunc func, DataType arg_type) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kSum:
      return arg_type == DataType::kDouble ? DataType::kDouble
                                           : DataType::kInt64;
    case AggFunc::kAvg:
      return DataType::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg_type;
  }
  return DataType::kInt64;
}

void AggAccumulator::Update(AggFunc func, const Value& v) {
  if (func == AggFunc::kCountStar) {
    ++count;
    return;
  }
  if (v.is_null()) return;
  switch (func) {
    case AggFunc::kCount:
      ++count;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      ++count;
      if (v.type() == DataType::kDouble) {
        double_sum += v.double_value();
      } else {
        int_sum += v.int64_value();
        double_sum += static_cast<double>(v.int64_value());
      }
      break;
    case AggFunc::kMin:
      if (count == 0 || Value::Compare(v, extremum) < 0) extremum = v;
      ++count;
      break;
    case AggFunc::kMax:
      if (count == 0 || Value::Compare(v, extremum) > 0) extremum = v;
      ++count;
      break;
    case AggFunc::kCountStar:
      break;
  }
}

Value AggAccumulator::Final(AggFunc func, DataType output_type) const {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int64(count);
    case AggFunc::kSum:
      if (count == 0) return Value::Null(output_type);
      return output_type == DataType::kDouble ? Value::Double(double_sum)
                                              : Value::Int64(int_sum);
    case AggFunc::kAvg:
      if (count == 0) return Value::Null(DataType::kDouble);
      return Value::Double(double_sum / static_cast<double>(count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (count == 0) return Value::Null(output_type);
      return extremum;
  }
  return Value();
}

void AppendAggFuncs(AggFunc func, std::vector<sim::FuncId>* funcs) {
  auto add = [funcs](sim::FuncId f) {
    if (std::find(funcs->begin(), funcs->end(), f) == funcs->end()) {
      funcs->push_back(f);
    }
  };
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      add(sim::FuncId::kAggCount);
      break;
    case AggFunc::kSum:
      add(sim::FuncId::kAggSum);
      break;
    case AggFunc::kAvg:
      add(sim::FuncId::kAggSum);
      add(sim::FuncId::kAggAvgExtra);
      break;
    case AggFunc::kMin:
      add(sim::FuncId::kAggMin);
      break;
    case AggFunc::kMax:
      add(sim::FuncId::kAggMax);
      break;
  }
}

AggregationOperator::AggregationOperator(OperatorPtr child,
                                         std::vector<AggSpec> specs)
    : specs_(std::move(specs)) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
  std::vector<Column> cols;
  for (AggSpec& spec : specs_) {
    // Fold at plan time: programmatically-built plans bypass the binder's
    // folding pass, so constant subtrees in aggregate arguments (e.g.
    // price * (1 - 0.1)) would otherwise be re-evaluated per tuple.
    if (spec.arg != nullptr) spec.arg = FoldConstants(std::move(spec.arg));
    AppendAggFuncs(spec.func, &hot_funcs_);
    DataType arg_type =
        spec.arg != nullptr ? spec.arg->result_type() : DataType::kInt64;
    cols.push_back(Column{spec.output_name, AggOutputType(spec.func, arg_type)});
  }
  output_schema_ = Schema(std::move(cols));

  // Compile every argument; the batched load goes column-at-a-time only
  // when all of them compiled (all-or-nothing, like HashAggregation).
  const Schema& in_schema = this->child(0)->output_schema();
  args_compiled_ = true;
  for (const AggSpec& spec : specs_) {
    if (spec.arg == nullptr) {
      arg_compiled_.push_back(nullptr);  // COUNT(*) takes no argument.
      continue;
    }
    arg_compiled_.push_back(CompiledExpr::Compile(*spec.arg, in_schema));
    args_compiled_ = args_compiled_ && arg_compiled_.back() != nullptr;
  }
  if (args_compiled_) {
    SetVectorBatchFuncs();
    for (const auto& p : arg_compiled_) {
      if (p == nullptr) continue;
      for (int col : p->input_columns()) {
        if (std::find(decode_cols_.begin(), decode_cols_.end(), col) ==
            decode_cols_.end()) {
          decode_cols_.push_back(col);
        }
      }
    }
  } else {
    arg_compiled_.clear();
  }
}

Status AggregationOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  done_ = false;
  if (batch_size() > 1) batch_rows_.resize(batch_size());
  return child(0)->Open(ctx);
}

void AggregationOperator::FoldLanes(AggFunc func, const ColumnVector* arg,
                                    size_t n, AggAccumulator* acc) {
  if (func == AggFunc::kCountStar) {
    acc->count += static_cast<int64_t>(n);
    return;
  }
  const uint8_t* nulls = arg->null_data();
  if (func == AggFunc::kCount) {
    for (size_t i = 0; i < n; ++i) acc->count += nulls[i] == 0 ? 1 : 0;
    return;
  }
  if (func == AggFunc::kMin || func == AggFunc::kMax) {
    for (size_t i = 0; i < n; ++i) {
      if (nulls[i] == 0) acc->Update(func, LaneValue(*arg, i));
    }
    return;
  }
  // SUM/AVG: lane by lane in row order with AggAccumulator::Update's exact
  // updates and no re-association, so the sums match the row path bit for
  // bit.
  if (arg->is_double()) {
    const double* vals = arg->f64_data();
    for (size_t i = 0; i < n; ++i) {
      if (nulls[i] != 0) continue;
      ++acc->count;
      acc->double_sum += vals[i];
    }
    return;
  }
  const int64_t* vals = arg->i64_data();
  for (size_t i = 0; i < n; ++i) {
    if (nulls[i] != 0) continue;
    ++acc->count;
    acc->int_sum += vals[i];
    acc->double_sum += static_cast<double>(vals[i]);
  }
}

void AggregationOperator::LoadBatched(std::vector<AggAccumulator>* accs) {
  const Schema& in_schema = child(0)->output_schema();
  const size_t width = batch_size();
  for (;;) {
    const size_t n = child(0)->NextBatch(batch_rows_.data(), width);
    if (n == 0) break;
    if (args_compiled_) {
      for (size_t i = 0; i < n; ++i) {
        ctx_->ExecModule(module_id(), hot_funcs_batched());
      }
      RowBatchDecoder::DecodeMissing(batch_rows_.data(), n, in_schema,
                                     decode_cols_, child(0)->BatchColumns(),
                                     &vbatch_);
      for (size_t a = 0; a < specs_.size(); ++a) {
        const ColumnVector* arg = arg_compiled_[a] != nullptr
                                      ? &arg_compiled_[a]->Run(vbatch_)
                                      : nullptr;
        FoldLanes(specs_[a].func, arg, n, &(*accs)[a]);
      }
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      ctx_->ExecModule(module_id(), hot_funcs_);
      TupleView view(batch_rows_[i], &in_schema);
      for (size_t a = 0; a < specs_.size(); ++a) {
        // LINT: allow-scalar-eval(fallback: some argument did not compile)
        Value v = specs_[a].arg != nullptr ? specs_[a].arg->Evaluate(view)
                                           : Value();
        (*accs)[a].Update(specs_[a].func, v);
      }
    }
  }
}

const uint8_t* AggregationOperator::Next() {
  if (done_) {
    ctx_->ExecModule(module_id(), hot_funcs_);
    return nullptr;
  }
  const Schema& in_schema = child(0)->output_schema();
  std::vector<AggAccumulator> accs(specs_.size());
  if (batch_size() > 1) {
    LoadBatched(&accs);
  } else {
    while (const uint8_t* row = child(0)->Next()) {
      // One aggregation-module execution per input tuple: this is the
      // per-tuple interleaving with the child that buffering removes.
      ctx_->ExecModule(module_id(), hot_funcs_);
      TupleView view(row, &in_schema);
      for (size_t i = 0; i < specs_.size(); ++i) {
        Value v = specs_[i].arg != nullptr ? specs_[i].arg->Evaluate(view)
                                           : Value();
        accs[i].Update(specs_[i].func, v);
      }
    }
  }
  ctx_->ExecModule(module_id(), hot_funcs_);
  TupleBuilder builder(&output_schema_);
  for (size_t i = 0; i < specs_.size(); ++i) {
    builder.Set(i, accs[i].Final(specs_[i].func,
                                 output_schema_.column(i).type));
  }
  const uint8_t* out = builder.Finish(&ctx_->arena);
  ctx_->Touch(out, TupleView(out, &output_schema_).size_bytes());
  done_ = true;
  return out;
}

void AggregationOperator::Close() { child(0)->Close(); }

std::string AggregationOperator::label() const {
  std::string out = "Agg(";
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggFuncName(specs_[i].func);
    if (specs_[i].arg != nullptr) {
      // Append-form (not `"(" + s + ")"`) to dodge gcc 12's -O3 -Wrestrict
      // false positive (PR105651).
      out += "(";
      out += specs_[i].arg->ToString();
      out += ")";
    }
  }
  out += ")";
  return out;
}

}  // namespace bufferdb
