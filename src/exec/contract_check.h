#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "exec/operator.h"

namespace bufferdb {

/// Thrown by ContractCheckedOperator when a caller breaks the Volcano
/// state machine. A distinct type (rather than assert/abort) so tests can
/// prove each violation class is detected.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error("operator contract violation: " + what) {}
};

/// Debug wrapper asserting the Open/Next/Close state machine around any
/// Operator (DESIGN.md section 9.2). Checks:
///
///   - no Next()/NextBatch()/Rescan() before a successful Open()
///   - no calls of any kind after Close() (except re-Open)
///   - no double Open() without an intervening Close()
///   - no double Close()
///   - batch-slice discipline: each NextBatch() call *poisons* the caller's
///     out[] entries from the previous call before delegating, so code that
///     holds a stale slice across a refill dereferences 0x51C0..DEAD and
///     ASan/TSan/a segfault catches it deterministically instead of it
///     silently reading rows from the wrong batch.
///
/// The wrapper owns the inner operator as child(0), so plan printing and
/// tree walks still see the real structure. Production code never
/// instantiates this class directly: use BUFFERDB_WRAP_CONTRACT_CHECKED,
/// which compiles to an identity expression unless BUFFERDB_CHECK_CONTRACTS
/// is defined (Debug builds and -DBUFFERDB_CHECK_CONTRACTS=ON trees), so
/// Release hot paths pay zero overhead — no virtual hop, no state bytes.
class ContractCheckedOperator final : public Operator {
 public:
  /// Pointer value written over stale batch slices; intentionally invalid
  /// and recognizable in a debugger / sanitizer report.
  static const uint8_t* PoisonPointer() {
    return reinterpret_cast<const uint8_t*>(static_cast<uintptr_t>(
        0x51C0DEADBEEFULL));
  }

  explicit ContractCheckedOperator(OperatorPtr inner) {
    if (inner == nullptr) {
      throw ContractViolation("wrapping a null operator");
    }
    AddChild(std::move(inner));
  }

  [[nodiscard]] Status Open(ExecContext* ctx) override {
    if (state_ == State::kOpen) {
      throw ContractViolation("Open() while already open (missing Close())");
    }
    ForgetSlice();
    Status st = child(0)->Open(ctx);
    if (st.ok()) state_ = State::kOpen;
    return st;
  }

  const uint8_t* Next() override {
    RequireOpen("Next()");
    PoisonStaleSlice();
    return child(0)->Next();
  }

  size_t NextBatch(const uint8_t** out, size_t max) override {
    RequireOpen("NextBatch()");
    PoisonStaleSlice();
    size_t n = child(0)->NextBatch(out, max);
    // Remember the slice just handed out; the next transfer call poisons
    // it so stale readers fail loudly.
    last_out_ = out;
    last_n_ = n <= max ? n : max;
    return n;
  }

  [[nodiscard]] Status Rescan() override {
    RequireOpen("Rescan()");
    PoisonStaleSlice();
    ForgetSlice();
    return child(0)->Rescan();
  }

  void Close() override {
    if (state_ == State::kCreated) {
      throw ContractViolation("Close() before Open()");
    }
    if (state_ == State::kClosed) {
      throw ContractViolation("double Close()");
    }
    PoisonStaleSlice();
    ForgetSlice();
    state_ = State::kClosed;
    child(0)->Close();
  }

  /// Forwards the wrapped operator's published columns, so checked plans
  /// exercise the same aliasing path in consumers as unchecked ones.
  const VectorBatch* BatchColumns() const override {
    return child(0)->BatchColumns();
  }

  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return child(0)->module_id(); }
  std::string label() const override {
    return "ContractChecked(" + child(0)->label() + ")";
  }
  bool BlocksInput(size_t i) const override {
    return child(0)->BlocksInput(i);
  }

 private:
  enum class State { kCreated, kOpen, kClosed };

  void RequireOpen(const char* call) const {
    if (state_ == State::kCreated) {
      throw ContractViolation(std::string(call) + " before Open()");
    }
    if (state_ == State::kClosed) {
      throw ContractViolation(std::string(call) + " after Close()");
    }
  }

  void PoisonStaleSlice() {
    for (size_t i = 0; i < last_n_; ++i) last_out_[i] = PoisonPointer();
  }

  void ForgetSlice() {
    last_out_ = nullptr;
    last_n_ = 0;
  }

  State state_ = State::kCreated;
  const uint8_t** last_out_ = nullptr;
  size_t last_n_ = 0;
};

/// Wraps `op` in a ContractCheckedOperator in checking builds; hands back
/// the same owning pointer otherwise. A macro (not an inline function) so
/// the two variants cannot collide across translation units with different
/// settings, and so the Release expansion is just a unique_ptr move —
/// no allocation, no wrapper object, no virtual hop.
#ifdef BUFFERDB_CHECK_CONTRACTS
#define BUFFERDB_WRAP_CONTRACT_CHECKED(op) \
  (::bufferdb::OperatorPtr(                \
      std::make_unique<::bufferdb::ContractCheckedOperator>(op)))
#else
#define BUFFERDB_WRAP_CONTRACT_CHECKED(op) (::bufferdb::OperatorPtr(op))
#endif

}  // namespace bufferdb
