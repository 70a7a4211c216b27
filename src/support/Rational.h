//===- support/Rational.h - Exact rational arithmetic --------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small exact rational number over int64, used for the variable bounds
/// the Fourier-Motzkin solver in the dependence analyzer projects out.
/// Always kept in canonical form (positive denominator, reduced).
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SUPPORT_RATIONAL_H
#define IRLT_SUPPORT_RATIONAL_H

#include "support/MathUtils.h"

#include <cassert>
#include <cstdint>
#include <string>

namespace irlt {

/// An exact rational Num/Den with Den > 0 and gcd(Num, Den) == 1.
class Rational {
public:
  Rational() : Num(0), Den(1) {}
  Rational(int64_t N) : Num(N), Den(1) {}
  Rational(int64_t N, int64_t D) : Num(N), Den(D) {
    assert(D != 0 && "rational with zero denominator");
    normalize();
  }

  int64_t num() const { return Num; }
  int64_t den() const { return Den; }

  bool isInteger() const { return Den == 1; }
  bool isZero() const { return Num == 0; }
  bool isNegative() const { return Num < 0; }
  bool isPositive() const { return Num > 0; }

  /// Largest integer <= this.
  int64_t floor() const { return floorDiv(Num, Den); }
  /// Smallest integer >= this.
  int64_t ceil() const { return ceilDiv(Num, Den); }

  Rational operator-() const { return Rational(negChecked(Num), Den); }

  Rational operator+(const Rational &O) const {
    int64_t G = gcd(Den, O.Den);
    int64_t L = Den / G * O.Den;
    return Rational(addChecked(mulChecked(Num, L / Den),
                               mulChecked(O.Num, L / O.Den)),
                    L);
  }

  Rational operator-(const Rational &O) const { return *this + (-O); }

  Rational operator*(const Rational &O) const {
    // Cross-reduce before multiplying to keep magnitudes small.
    int64_t G1 = gcd(Num, O.Den);
    int64_t G2 = gcd(O.Num, Den);
    return Rational(mulChecked(Num / G1, O.Num / G2),
                    mulChecked(Den / G2, O.Den / G1));
  }

  Rational operator/(const Rational &O) const {
    assert(!O.isZero() && "rational division by zero");
    return *this * Rational(O.Den, O.Num);
  }

  bool operator==(const Rational &O) const {
    return Num == O.Num && Den == O.Den;
  }
  bool operator!=(const Rational &O) const { return !(*this == O); }

  bool operator<(const Rational &O) const {
    // Cross-multiply with positive denominators preserves the order.
    return mulChecked(Num, O.Den) < mulChecked(O.Num, Den);
  }
  bool operator<=(const Rational &O) const { return !(O < *this); }
  bool operator>(const Rational &O) const { return O < *this; }
  bool operator>=(const Rational &O) const { return !(*this < O); }

  std::string str() const {
    if (Den == 1)
      return std::to_string(Num);
    return std::to_string(Num) + "/" + std::to_string(Den);
  }

private:
  void normalize() {
    if (Den < 0) {
      Num = negChecked(Num);
      Den = negChecked(Den);
    }
    int64_t G = gcd(Num, Den);
    if (G > 1) {
      Num /= G;
      Den /= G;
    }
    if (Num == 0)
      Den = 1;
  }

  int64_t Num;
  int64_t Den;
};

} // namespace irlt

#endif // IRLT_SUPPORT_RATIONAL_H
