//===- tests/transform/TypeStateTest.cpp -----------------------------------===//
//
// The Section 4.3 fast legality path: type-state propagation through each
// template, soundness of the predicted types against generated code, and
// verdict agreement between isLegalFast and the full isLegal.
//
//===----------------------------------------------------------------------===//

#include "dependence/DepAnalysis.h"
#include "ir/Parser.h"
#include "transform/TypeState.h"
#include "transform/Templates.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

LoopNest parse(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return *N;
}

TEST(TypeState, FromNestClassification) {
  LoopNest N = parse("do i = 1, n\n  do j = 2*i + 1, colstr(i), 2\n"
                     "    a(i, j) = 1\n  enddo\nenddo\n");
  NestTypeState S = NestTypeState::fromNest(N);
  ASSERT_EQ(S.numLoops(), 2u);
  EXPECT_TRUE(S.Loops[0].LB.isConst());
  EXPECT_FALSE(S.Loops[0].UB.isConst());
  EXPECT_EQ(S.Loops[0].UB.wrt(0), BoundType::Invar);
  EXPECT_EQ(S.Loops[1].LB.wrt(0), BoundType::Linear);
  EXPECT_EQ(S.Loops[1].UB.wrt(0), BoundType::Nonlinear);
  EXPECT_EQ(S.Loops[1].Step.wrt(0), BoundType::Const);
  EXPECT_EQ(*S.Loops[1].StepConst, 2);
}

TEST(TypeState, FromNestMaxMinSpecialCase) {
  LoopNest N = parse("do i = max(1, m), min(n, 100)\n  do j = i, n\n"
                     "    a(i, j) = 1\n  enddo\nenddo\n");
  NestTypeState S = NestTypeState::fromNest(N);
  EXPECT_TRUE(S.Loops[0].StartComposite);
  EXPECT_FALSE(S.Loops[1].StartComposite);
  EXPECT_EQ(S.Loops[1].LB.wrt(0), BoundType::Linear);
}

/// Predicted types must over-approximate the generated bounds' true
/// types: apply the template for real, re-classify, compare pointwise.
void checkSoundness(const LoopNest &N, const TemplateRef &T) {
  NestTypeState S0 = NestTypeState::fromNest(N);
  std::optional<ErrorOr<NestTypeState>> Pred = mapTypes(*T, S0);
  ASSERT_TRUE(Pred.has_value()) << T->str() << " has no type rule";
  if (!*Pred) {
    // Precondition rejections must agree with the template's own check.
    EXPECT_NE(T->checkPreconditions(N), "")
        << T->str() << ": type rule rejected but template accepts\n"
        << Pred->message();
    return;
  }
  ASSERT_EQ(T->checkPreconditions(N), "")
      << T->str() << ": type rule accepted but template rejects";
  ErrorOr<LoopNest> Out = T->apply(N);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  NestTypeState Actual = NestTypeState::fromNest(*Out);
  const NestTypeState &P = **Pred;
  ASSERT_EQ(P.numLoops(), Actual.numLoops()) << T->str();
  for (unsigned K = 0; K < P.numLoops(); ++K) {
    EXPECT_EQ(P.Loops[K].Kind, Actual.Loops[K].Kind) << T->str() << " @" << K;
    for (unsigned V = 0; V < P.numLoops(); ++V) {
      EXPECT_TRUE(typeLE(Actual.Loops[K].LB.wrt(V), P.Loops[K].LB.wrt(V)))
          << T->str() << ": LB of loop " << K + 1 << " wrt " << V + 1
          << " actual " << typeName(Actual.Loops[K].LB.wrt(V)) << " predicted "
          << typeName(P.Loops[K].LB.wrt(V)) << "\n"
          << Out->str();
      EXPECT_TRUE(typeLE(Actual.Loops[K].UB.wrt(V), P.Loops[K].UB.wrt(V)))
          << T->str() << ": UB of loop " << K + 1 << " wrt " << V + 1 << "\n"
          << Out->str();
      EXPECT_TRUE(typeLE(Actual.Loops[K].Step.wrt(V), P.Loops[K].Step.wrt(V)))
          << T->str() << ": Step of loop " << K + 1 << " wrt " << V + 1;
    }
    if (P.Loops[K].StepConst) {
      ASSERT_TRUE(Actual.Loops[K].StepConst.has_value()) << T->str();
      EXPECT_EQ(*P.Loops[K].StepConst, *Actual.Loops[K].StepConst)
          << T->str();
    }
  }
}

std::vector<LoopNest> soundnessNests() {
  return {
      parse("do i = 1, n\n  do j = 1, m\n    a(i, j) = 1\n  enddo\nenddo\n"),
      parse("do i = 1, n\n  do j = i, n\n    a(i, j) = 1\n  enddo\nenddo\n"),
      parse("do i = 1, n, 2\n  do j = 1, 2*i + 3\n    a(i, j) = 1\n"
            "  enddo\nenddo\n"),
      parse("do i = 1, n\n  do j = 1, n\n    do k = j, n\n"
            "      a(i, j, k) = 1\n    enddo\n  enddo\nenddo\n"),
  };
}

std::vector<TemplateRef> typedTemplates(unsigned N) {
  std::vector<TemplateRef> Ts;
  Ts.push_back(makeInterchange(N, 0, 1));
  {
    std::vector<bool> Rev(N, false);
    Rev[N - 1] = true;
    std::vector<unsigned> Perm(N);
    for (unsigned K = 0; K < N; ++K)
      Perm[K] = K;
    Ts.push_back(makeReversePermute(N, Rev, Perm));
  }
  Ts.push_back(makeParallelize(N, std::vector<bool>(N, true)));
  Ts.push_back(makeUnimodular(N, UnimodularMatrix::skew(N, 0, N - 1, 1)));
  Ts.push_back(
      makeBlock(N, 1, N, std::vector<ExprRef>(N, Expr::intConst(4))));
  Ts.push_back(makeBlock(N, 1, N, std::vector<ExprRef>(N, Expr::var("b"))));
  Ts.push_back(makeCoalesce(N, 1, N));
  if (N >= 2)
    Ts.push_back(makeCoalesce(N, N - 1, N));
  Ts.push_back(
      makeInterleave(N, 1, 2, {Expr::intConst(2), Expr::intConst(3)}));
  return Ts;
}

using NT = std::tuple<size_t, size_t>;
class TypeRuleSoundness : public ::testing::TestWithParam<NT> {};

TEST_P(TypeRuleSoundness, PredictionCoversGeneratedCode) {
  auto [NIdx, TIdx] = GetParam();
  LoopNest N = soundnessNests()[NIdx];
  std::vector<TemplateRef> Ts = typedTemplates(N.numLoops());
  ASSERT_LT(TIdx, Ts.size());
  checkSoundness(N, Ts[TIdx]);
}

INSTANTIATE_TEST_SUITE_P(Corpus, TypeRuleSoundness,
                         ::testing::Combine(::testing::Range<size_t>(0, 4),
                                            ::testing::Range<size_t>(0, 9)));

TEST(TypeState, FastLegalAgreesWithFullOnFigurePipelines) {
  struct Case {
    LoopNest Nest;
    TransformSequence Seq;
  };
  LoopNest MM = parse("arrays B, C\ndo i = 1, n\n  do j = 1, n\n"
                      "    do k = 1, n\n      A(i, j) += B(i, k)*C(k, j)\n"
                      "    enddo\n  enddo\nenddo\n");
  LoopNest St = parse("do i = 2, n - 1\n  do j = 2, n - 1\n"
                      "    a(i, j) = a(i - 1, j) + a(i, j - 1)\n"
                      "  enddo\nenddo\n");
  LoopNest Sparse = parse("arrays b, c\ndo i = 1, n\n  do j = 1, n\n"
                          "    do k = colstr(j), colstr(j + 1) - 1\n"
                          "      a(i, j) += b(i, rowidx(k))*c(k)\n"
                          "    enddo\n  enddo\nenddo\n");

  std::vector<Case> Cases;
  // Figure 7 pipeline.
  Cases.push_back({MM, TransformSequence::of({
                           makeReversePermute(3, {false, false, false},
                                              {2, 0, 1}),
                           makeBlock(3, 1, 3,
                                     {Expr::var("bj"), Expr::var("bk"),
                                      Expr::var("bi")}),
                           makeParallelize(6,
                                           {true, false, true, false, false,
                                            false}),
                           makeReversePermute(6,
                                              {false, false, false, false,
                                               false, false},
                                              {0, 2, 1, 3, 4, 5}),
                           makeCoalesce(6, 1, 2),
                       })});
  // Figure 1 skew+interchange (+ an illegal parallelization variant).
  Cases.push_back({St, TransformSequence::of(
                           {makeUnimodular(2, UnimodularMatrix(2,
                                                               {1, 1, 1, 0})),
                            makeParallelize(2, {false, true})})});
  Cases.push_back({St, TransformSequence::of(
                           {makeUnimodular(2, UnimodularMatrix(2,
                                                               {1, 1, 1, 0})),
                            makeParallelize(2, {true, false})})});
  // Figure 4(c): nonlinear bounds - RP legal, Unimodular rejected.
  Cases.push_back({Sparse, TransformSequence::of({makeReversePermute(
                               3, {false, false, false}, {2, 0, 1})})});
  Cases.push_back({Sparse, TransformSequence::of({makeUnimodular(
                               3, UnimodularMatrix::interchange(3, 1, 2))})});
  // Triangular coalesce: precondition rejection.
  LoopNest Tri = parse("do i = 1, n\n  do j = i, n\n    a(i, j) = 1\n"
                       "  enddo\nenddo\n");
  Cases.push_back({Tri, TransformSequence::of({makeCoalesce(2, 1, 2)})});
  // Extension template (no type rule): the fast path falls back.
  Cases.push_back({Tri, TransformSequence::of(
                            {makeStripMine(2, 2, Expr::intConst(4)),
                             makeParallelize(3, {true, false, false})})});
  // A constant step times a constant block or phase size leaves the
  // int64 range: both modes must reject with Overflow.
  LoopNest Huge = parse("arrays B\ndo i = 1, n, 4611686018427387904\n"
                        "  do j = 1, n\n    A(i, j) = B(i, j)\n"
                        "  enddo\nenddo\n");
  std::vector<ExprRef> Fours = {Expr::intConst(4), Expr::intConst(4)};
  Cases.push_back({Huge, TransformSequence::of({makeBlock(2, 1, 2, Fours)})});
  Cases.push_back(
      {Huge, TransformSequence::of({makeInterleave(2, 1, 2, Fours)})});

  for (size_t I = 0; I < Cases.size(); ++I) {
    const Case &C = Cases[I];
    DepSet D = analyzeDependences(C.Nest);
    LegalityResult Full = isLegal(C.Seq, C.Nest, D);
    LegalityResult Fast = isLegalFast(C.Seq, C.Nest, D);
    EXPECT_EQ(Full.Legal, Fast.Legal)
        << "case " << I << ": full='" << Full.Reason << "' fast='"
        << Fast.Reason << "'";
    if (Full.Legal && Fast.Legal) {
      EXPECT_EQ(Full.FinalDeps.str(), Fast.FinalDeps.str());
    }
    EXPECT_EQ(Full.Kind, Fast.Kind) << "case " << I;
  }
}

TEST(TypeState, ExprTypesRemapDropsAndMoves) {
  ExprTypes E = ExprTypes::invariant();
  E.raise(0, BoundType::Linear);
  E.raise(2, BoundType::Nonlinear);
  std::vector<std::optional<unsigned>> Remap = {1, std::nullopt, std::nullopt};
  ExprTypes R = E.remapped(Remap);
  EXPECT_EQ(R.wrt(1), BoundType::Linear);
  EXPECT_EQ(R.wrt(0), BoundType::Invar);
  EXPECT_EQ(R.wrt(2), BoundType::Invar);
}

TEST(TypeState, JoinIsPointwise) {
  ExprTypes A = ExprTypes::constant();
  ExprTypes B = ExprTypes::invariant();
  B.raise(1, BoundType::Linear);
  ExprTypes J = A.joinedWith(B);
  EXPECT_FALSE(J.isConst());
  EXPECT_EQ(J.wrt(1), BoundType::Linear);
  EXPECT_EQ(J.wrt(0), BoundType::Invar);
}

} // namespace
