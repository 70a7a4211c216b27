//===- transform/UnimodularMatrix.h - Integer unimodular matrices --------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Square integer matrices with determinant +-1 (footnote 1 of the
/// paper), the parameter of the Unimodular transformation template.
/// Provides the three generator families the paper names (reversal,
/// interchange/permutation, skewing), exact determinant (Bareiss
/// fraction-free elimination), exact integer inverse (adjugate), and the
/// matrix-vector product on dependence vectors "appropriately extended
/// for direction values" (Table 2) via sign-interval arithmetic.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_TRANSFORM_UNIMODULARMATRIX_H
#define IRLT_TRANSFORM_UNIMODULARMATRIX_H

#include "dependence/DepVector.h"

#include <cstdint>
#include <string>
#include <vector>

namespace irlt {

/// A square integer matrix; unimodularity is a checkable property.
class UnimodularMatrix {
public:
  /// The n x n zero matrix (useful as a builder start).
  explicit UnimodularMatrix(unsigned N) : N(N), Data(N * N, 0) {}

  /// Builds from row-major data.
  UnimodularMatrix(unsigned N, std::vector<int64_t> RowMajor);

  static UnimodularMatrix identity(unsigned N);

  /// Reversal of loop \p K (0-based): diag(1,..,-1,..,1).
  static UnimodularMatrix reversal(unsigned N, unsigned K);

  /// Interchange of loops \p A and \p B.
  static UnimodularMatrix interchange(unsigned N, unsigned A, unsigned B);

  /// General permutation: output loop Perm[k] gets input loop k
  /// (Perm is a bijection on 0..N-1).
  static UnimodularMatrix permutation(unsigned N,
                                      const std::vector<unsigned> &Perm);

  /// Skew: y_Dst = x_Dst + Factor * x_Src (all other rows identity).
  static UnimodularMatrix skew(unsigned N, unsigned Src, unsigned Dst,
                               int64_t Factor);

  unsigned size() const { return N; }

  int64_t at(unsigned R, unsigned C) const { return Data[R * N + C]; }
  void set(unsigned R, unsigned C, int64_t V) { Data[R * N + C] = V; }

  /// Exact determinant via Bareiss fraction-free elimination.
  int64_t determinant() const;

  /// True iff det is 1 or -1 (all entries are integers by construction
  /// and the matrix is square by construction - property 3 of footnote
  /// 1). Compares instead of taking |det|, which INT64_MIN overflows.
  bool isUnimodular() const {
    int64_t D = determinant();
    return D == 1 || D == -1;
  }

  /// Matrix product (this * O): applying O first, then this.
  UnimodularMatrix operator*(const UnimodularMatrix &O) const;

  /// Exact integer inverse via the adjugate. Asserts unimodularity.
  UnimodularMatrix inverse() const;

  /// Product with an exact integer vector.
  std::vector<int64_t> apply(const std::vector<int64_t> &X) const;

  /// Product with a dependence vector, extended for direction values:
  /// each output entry is the sign-interval sum of scaled input entries
  /// and is exact whenever every participating entry is a distance.
  DepVector apply(const DepVector &D) const;

  /// Row \p R is the unit vector e_C?
  bool rowIsUnit(unsigned R, unsigned C) const;

  bool operator==(const UnimodularMatrix &O) const {
    return N == O.N && Data == O.Data;
  }

  /// "[[1, 1], [1, 0]]".
  std::string str() const;

private:
  unsigned N;
  std::vector<int64_t> Data; // row-major
};

} // namespace irlt

#endif // IRLT_TRANSFORM_UNIMODULARMATRIX_H
