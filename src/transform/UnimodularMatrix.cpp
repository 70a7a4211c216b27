//===- transform/UnimodularMatrix.cpp - Integer unimodular matrices ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "transform/UnimodularMatrix.h"

#include "support/MathUtils.h"
#include "support/Printing.h"

#include <cassert>

using namespace irlt;

UnimodularMatrix::UnimodularMatrix(unsigned N, std::vector<int64_t> RowMajor)
    : N(N), Data(std::move(RowMajor)) {
  assert(Data.size() == static_cast<size_t>(N) * N &&
         "row-major data size mismatch");
}

UnimodularMatrix UnimodularMatrix::identity(unsigned N) {
  UnimodularMatrix M(N);
  for (unsigned I = 0; I < N; ++I)
    M.set(I, I, 1);
  return M;
}

UnimodularMatrix UnimodularMatrix::reversal(unsigned N, unsigned K) {
  assert(K < N && "reversal index out of range");
  UnimodularMatrix M = identity(N);
  M.set(K, K, -1);
  return M;
}

UnimodularMatrix UnimodularMatrix::interchange(unsigned N, unsigned A,
                                               unsigned B) {
  assert(A < N && B < N && "interchange index out of range");
  UnimodularMatrix M = identity(N);
  M.set(A, A, 0);
  M.set(B, B, 0);
  M.set(A, B, 1);
  M.set(B, A, 1);
  return M;
}

UnimodularMatrix
UnimodularMatrix::permutation(unsigned N, const std::vector<unsigned> &Perm) {
  assert(Perm.size() == N && "permutation arity mismatch");
  UnimodularMatrix M(N);
  std::vector<bool> Seen(N, false);
  for (unsigned K = 0; K < N; ++K) {
    assert(Perm[K] < N && !Seen[Perm[K]] && "not a bijection");
    Seen[Perm[K]] = true;
    // Output loop Perm[K] carries input loop K: y_{Perm[K]} = x_K.
    M.set(Perm[K], K, 1);
  }
  return M;
}

UnimodularMatrix UnimodularMatrix::skew(unsigned N, unsigned Src, unsigned Dst,
                                        int64_t Factor) {
  assert(Src < N && Dst < N && Src != Dst && "bad skew indices");
  UnimodularMatrix M = identity(N);
  M.set(Dst, Src, Factor);
  return M;
}

int64_t UnimodularMatrix::determinant() const {
  if (N == 0)
    return 1;
  // Bareiss fraction-free elimination: every intermediate division is
  // exact, so the computation stays in integers.
  std::vector<int64_t> A = Data;
  auto At = [&](unsigned R, unsigned C) -> int64_t & { return A[R * N + C]; };
  int64_t SignFlip = 1;
  int64_t Prev = 1;
  for (unsigned K = 0; K + 1 < N; ++K) {
    if (At(K, K) == 0) {
      unsigned Pivot = K + 1;
      while (Pivot < N && At(Pivot, K) == 0)
        ++Pivot;
      if (Pivot == N)
        return 0; // singular
      for (unsigned C = 0; C < N; ++C)
        std::swap(At(K, C), At(Pivot, C));
      SignFlip = -SignFlip;
    }
    for (unsigned I = K + 1; I < N; ++I)
      for (unsigned J = K + 1; J < N; ++J) {
        int64_t V = addChecked(mulChecked(At(I, J), At(K, K)),
                               negChecked(mulChecked(At(I, K), At(K, J))));
        // Saturated intermediates (mulChecked/addChecked degrade to the
        // int64 boundary under an active OverflowGuard) break the
        // exact-division invariant; record and bail out - the caller
        // discards the result at its triggered() boundary. Prev == -1 is
        // split out because INT64_MIN % -1 traps in hardware.
        bool Inexact = Prev == -1 ? V == INT64_MIN : V % Prev != 0;
        if (Inexact) {
          [[maybe_unused]] bool Handled = OverflowGuard::record();
          assert(Handled && "Bareiss division not exact");
          return 0;
        }
        At(I, J) = V / Prev;
      }
    Prev = At(K, K);
  }
  // A row swap negates the last pivot, which overflows when it is
  // INT64_MIN (the determinant is then 2^63).
  return mulChecked(SignFlip, At(N - 1, N - 1));
}

UnimodularMatrix UnimodularMatrix::operator*(const UnimodularMatrix &O) const {
  assert(N == O.N && "matrix size mismatch");
  UnimodularMatrix R(N);
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J) {
      int64_t S = 0;
      for (unsigned K = 0; K < N; ++K)
        S = addChecked(S, mulChecked(at(I, K), O.at(K, J)));
      R.set(I, J, S);
    }
  return R;
}

UnimodularMatrix UnimodularMatrix::inverse() const {
  int64_t Det = determinant();
  // Under an active OverflowGuard a huge-entry determinant saturates and
  // comes back degraded; the result here is then garbage the caller
  // discards at its triggered() boundary.
  assert((Det == 1 || Det == -1 ||
          (OverflowGuard::active() && OverflowGuard::active()->triggered())) &&
         "inverse of non-unimodular matrix");
  UnimodularMatrix Inv(N);
  // Adjugate: Inv[j][i] = cofactor(i, j) / det. N is small (loop nest
  // depth), so O(n^4) minors are fine.
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J) {
      // Minor matrix with row I, column J removed.
      UnimodularMatrix Minor(N - 1);
      for (unsigned R = 0, MR = 0; R < N; ++R) {
        if (R == I)
          continue;
        for (unsigned C = 0, MC = 0; C < N; ++C) {
          if (C == J)
            continue;
          Minor.set(MR, MC, at(R, C));
          ++MC;
        }
        ++MR;
      }
      int64_t Cof = Minor.determinant();
      if ((I + J) % 2 != 0)
        Cof = negChecked(Cof);
      // Division by det == multiplication (+-1); a saturated det is not
      // +-1, so this is checked like the cofactor's sign.
      Inv.set(J, I, mulChecked(Cof, Det));
    }
  return Inv;
}

std::vector<int64_t>
UnimodularMatrix::apply(const std::vector<int64_t> &X) const {
  assert(X.size() == N && "vector arity mismatch");
  std::vector<int64_t> Y(N, 0);
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      Y[I] = addChecked(Y[I], mulChecked(at(I, J), X[J]));
  return Y;
}

DepVector UnimodularMatrix::apply(const DepVector &D) const {
  assert(D.size() == N && "dependence vector arity mismatch");
  std::vector<DepElem> Out;
  Out.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    DepElem Acc = DepElem::zero();
    for (unsigned J = 0; J < N; ++J)
      Acc = DepElem::add(Acc, D[J].scaled(at(I, J)));
    Out.push_back(Acc);
  }
  return DepVector(std::move(Out));
}

bool UnimodularMatrix::rowIsUnit(unsigned R, unsigned C) const {
  for (unsigned J = 0; J < N; ++J)
    if (at(R, J) != (J == C ? 1 : 0))
      return false;
  return true;
}

std::string UnimodularMatrix::str() const {
  std::vector<std::string> Rows;
  for (unsigned I = 0; I < N; ++I) {
    std::vector<std::string> Cols;
    for (unsigned J = 0; J < N; ++J)
      Cols.push_back(std::to_string(at(I, J)));
    Rows.push_back("[" + join(Cols, ", ") + "]");
  }
  return "[" + join(Rows, ", ") + "]";
}
