//===- support/MathUtils.h - Exact integer arithmetic helpers ------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact integer helpers used throughout the framework: floor/ceil division
/// (division semantics in generated code follow Fortran-style flooring, see
/// DESIGN.md), gcd, sign, and checked multiplication.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SUPPORT_MATHUTILS_H
#define IRLT_SUPPORT_MATHUTILS_H

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace irlt {

class OverflowGuard;

/// Sign of \p A as -1, 0, or +1.
inline int sign(int64_t A) { return (A > 0) - (A < 0); }

/// Magnitude of \p A as uint64, exact even for INT64_MIN.
inline uint64_t magnitude(int64_t A) {
  return A < 0 ? uint64_t(0) - static_cast<uint64_t>(A)
               : static_cast<uint64_t>(A);
}

inline int64_t negChecked(int64_t A);
inline void recordDivByZero();

/// Floor division: rounds the quotient toward negative infinity.
/// floorDiv(7, 2) == 3, floorDiv(-7, 2) == -4, floorDiv(7, -2) == -4.
/// Division by zero follows the OverflowGuard policy and yields 0.
inline int64_t floorDiv(int64_t A, int64_t B) {
  if (B == 0) {
    recordDivByZero();
    return 0;
  }
  if (B == -1) // -INT64_MIN traps in hardware; negChecked saturates.
    return negChecked(A);
  int64_t Q = A / B;
  int64_t R = A % B;
  if (R != 0 && ((R < 0) != (B < 0)))
    --Q;
  return Q;
}

/// Ceiling division: rounds the quotient toward positive infinity.
inline int64_t ceilDiv(int64_t A, int64_t B) {
  if (B == 0) {
    recordDivByZero();
    return 0;
  }
  if (B == -1)
    return negChecked(A);
  int64_t Q = A / B;
  int64_t R = A % B;
  if (R != 0 && ((R < 0) == (B < 0)))
    ++Q;
  return Q;
}

/// Floor modulus: result has the same sign as \p B (Fortran MODULO).
/// floorMod(-7, 2) == 1.
inline int64_t floorMod(int64_t A, int64_t B) {
  if (B == 0) {
    recordDivByZero();
    return 0;
  }
  if (B == -1) // exactly zero for every A, including INT64_MIN
    return 0;
  return A - floorDiv(A, B) * B;
}

inline int64_t gcd(int64_t A, int64_t B);


/// Scoped overflow trap for coefficient arithmetic. While a guard is
/// alive on the current thread, addChecked/mulChecked record overflow
/// here and return a saturated value instead of asserting (division by
/// zero and isqrtChecked of a negative value record too); the caller
/// checks triggered() at a clean boundary (a legality stage, a bounds
/// pipeline step) and degrades to a structured "arithmetic overflow"
/// rejection. Guards nest; the innermost one records. Without an active
/// guard the original assert fires, so invariant checking elsewhere in
/// the framework is unchanged.
class OverflowGuard {
public:
  OverflowGuard() : Prev(Active) { Active = this; }
  ~OverflowGuard() { Active = Prev; }
  OverflowGuard(const OverflowGuard &) = delete;
  OverflowGuard &operator=(const OverflowGuard &) = delete;

  bool triggered() const { return Triggered; }
  void reset() { Triggered = false; }

  /// The innermost live guard on this thread, or null.
  static OverflowGuard *active() { return Active; }

  /// Records an overflow on the innermost guard; \returns false when no
  /// guard is live (caller should assert).
  static bool record() {
    if (!Active)
      return false;
    Active->Triggered = true;
    return true;
  }

private:
  inline static thread_local OverflowGuard *Active = nullptr;
  OverflowGuard *Prev;
  bool Triggered = false;
};

/// Multiplies with overflow checking. Under an active OverflowGuard an
/// overflow is recorded and the result saturates to the int64 range;
/// otherwise the assert documents the framework's assumption that
/// coefficient arithmetic stays far from the boundary.
inline int64_t mulChecked(int64_t A, int64_t B) {
  int64_t R;
  bool Overflow = __builtin_mul_overflow(A, B, &R);
  if (Overflow) {
    [[maybe_unused]] bool Handled = OverflowGuard::record();
    assert(Handled && "integer overflow in coefficient arithmetic");
    return (A < 0) == (B < 0) ? INT64_MAX : INT64_MIN;
  }
  return R;
}

/// Adds with overflow checking; same guard/assert policy as mulChecked.
inline int64_t addChecked(int64_t A, int64_t B) {
  int64_t R;
  bool Overflow = __builtin_add_overflow(A, B, &R);
  if (Overflow) {
    [[maybe_unused]] bool Handled = OverflowGuard::record();
    assert(Handled && "integer overflow in coefficient arithmetic");
    return A > 0 ? INT64_MAX : INT64_MIN;
  }
  return R;
}

/// Subtracts with overflow checking; same guard/assert policy as
/// mulChecked.
inline int64_t subChecked(int64_t A, int64_t B) {
  int64_t R;
  bool Overflow = __builtin_sub_overflow(A, B, &R);
  if (Overflow) {
    [[maybe_unused]] bool Handled = OverflowGuard::record();
    assert(Handled && "integer overflow in coefficient arithmetic");
    return A >= 0 ? INT64_MAX : INT64_MIN;
  }
  return R;
}

/// Records a division (or modulus) by zero on the innermost live guard
/// (the caller then yields 0); asserts when no guard is live.
inline void recordDivByZero() {
  [[maybe_unused]] bool Handled = OverflowGuard::record();
  assert(Handled && "division by zero");
}

/// Negates with overflow checking (only -INT64_MIN overflows); same
/// guard/assert policy as mulChecked.
inline int64_t negChecked(int64_t A) {
  if (A == INT64_MIN) {
    [[maybe_unused]] bool Handled = OverflowGuard::record();
    assert(Handled && "integer overflow in coefficient arithmetic");
    return INT64_MAX;
  }
  return -A;
}

/// Integer square root of the evaluator's `sqrt` builtin (truncated
/// double sqrt). A negative argument follows the OverflowGuard policy and
/// yields 0.
inline int64_t isqrtChecked(int64_t A) {
  if (A < 0) {
    [[maybe_unused]] bool Handled = OverflowGuard::record();
    assert(Handled && "sqrt of negative value");
    return 0;
  }
  return static_cast<int64_t>(std::sqrt(static_cast<double>(A)));
}

/// Greatest common divisor; gcd(0, 0) == 0, always non-negative. Runs on
/// uint64 magnitudes so INT64_MIN inputs (possible after checked-op
/// saturation) are exact; the one unrepresentable result, gcd == 2^63,
/// saturates under the usual guard/assert policy.
inline int64_t gcd(int64_t A, int64_t B) {
  uint64_t X = magnitude(A), Y = magnitude(B);
  while (Y != 0) {
    uint64_t T = X % Y;
    X = Y;
    Y = T;
  }
  if (X > static_cast<uint64_t>(INT64_MAX)) {
    [[maybe_unused]] bool Handled = OverflowGuard::record();
    assert(Handled && "integer overflow in coefficient arithmetic");
    return INT64_MAX;
  }
  return static_cast<int64_t>(X);
}

} // namespace irlt

#endif // IRLT_SUPPORT_MATHUTILS_H
