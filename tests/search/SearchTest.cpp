//===- tests/search/SearchTest.cpp - Search engine tests -------------------===//
//
// Acceptance-level tests for the cost-model-guided transformation search
// (docs/SEARCH.md): the locality objective must match or beat the
// hand-written blocked sequences on the paper's nests, winners must be
// legal and semantics-preserving, and the result must be byte-identical
// for any thread count.
//
//===----------------------------------------------------------------------===//

#include "dependence/DepAnalysis.h"
#include "eval/Verify.h"
#include "ir/Parser.h"
#include "search/AutoPar.h"
#include "search/CostModel.h"
#include "search/Search.h"
#include "transform/Templates.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace irlt;
using namespace irlt::search;

namespace {

LoopNest parse(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return *N;
}

LoopNest matmulNest() {
  return parse("arrays B, C\n"
               "do i = 1, n\n"
               "  do j = 1, n\n"
               "    do k = 1, n\n"
               "      A(i, j) += B(i, k) * C(k, j)\n"
               "    enddo\n"
               "  enddo\n"
               "enddo\n");
}

LoopNest trapezoidNest() {
  return parse("do i = 1, n\n"
               "  do j = 1, i\n"
               "    a(i, j) = a(i, j) + 1\n"
               "  enddo\n"
               "enddo\n");
}

/// Miss ratio of \p Seq on \p Nest under the search engine's default cost
/// model (same bindings, cache, budget as the search itself).
double missOf(const LoopNest &Nest, const TransformSequence &Seq) {
  CostModel CM(Nest, CostModelOptions{});
  std::optional<double> M = CM.missRatio(Seq, Seq.reduced().str());
  EXPECT_TRUE(M.has_value());
  return M.value_or(1.0);
}

TEST(Search, MatmulLocalityMatchesHandBlockedSequence) {
  LoopNest Nest = matmulNest();
  DepSet D = analyzeDependences(Nest);

  SearchOptions Opts;
  Opts.Obj = Objective::Locality;
  SearchResult R = searchTransformations(Nest, D, Opts);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  ASSERT_TRUE(R.Best.has_value());

  // The winner is confirmed legal (the engine promises this, re-check
  // independently) and beats the untransformed nest.
  EXPECT_TRUE(isLegal(R.Best->Seq, Nest, D).Legal);
  TransformSequence Empty;
  EXPECT_LT(R.Best->MissRatio, missOf(Nest, Empty));

  // Acceptance bar: at least as good as the hand-written Figure 7 blocked
  // prefix (k-j-i permutation, all three loops blocked at 8).
  TransformSequence Hand = TransformSequence::of(
      {makeReversePermute(3, {false, false, false}, {2, 0, 1}),
       makeBlock(3, 1, 3,
                 {Expr::intConst(8), Expr::intConst(8), Expr::intConst(8)})});
  ASSERT_TRUE(isLegal(Hand, Nest, D).Legal);
  EXPECT_LE(R.Best->MissRatio, missOf(Nest, Hand));
}

TEST(Search, TrapezoidLocalityMatchesHandBlockedSequence) {
  LoopNest Nest = trapezoidNest();
  DepSet D = analyzeDependences(Nest);

  SearchOptions Opts;
  Opts.Obj = Objective::Locality;
  SearchResult R = searchTransformations(Nest, D, Opts);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  ASSERT_TRUE(R.Best.has_value());
  EXPECT_TRUE(isLegal(R.Best->Seq, Nest, D).Legal);

  // The C2 bench's hand-blocked trapezoid: Block both loops at 8.
  TransformSequence Hand = TransformSequence::of(
      {makeBlock(2, 1, 2, {Expr::intConst(8), Expr::intConst(8)})});
  ASSERT_TRUE(isLegal(Hand, Nest, D).Legal);
  EXPECT_LE(R.Best->MissRatio, missOf(Nest, Hand));
}

TEST(Search, WinnerPreservesSemantics) {
  LoopNest Nest = matmulNest();
  DepSet D = analyzeDependences(Nest);
  SearchOptions Opts;
  Opts.Obj = Objective::Both;
  SearchResult R = searchTransformations(Nest, D, Opts);
  ASSERT_TRUE(R.Best.has_value());
  ErrorOr<LoopNest> Out = applySequence(R.Best->Seq, Nest);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  EvalConfig C;
  C.Params["n"] = 9;
  VerifyResult V = verifyTransformed(Nest, *Out, C);
  EXPECT_TRUE(V.Ok) << V.Problem;
}

TEST(Search, ResultIsThreadCountInvariant) {
  LoopNest Nest = matmulNest();
  DepSet D = analyzeDependences(Nest);

  for (Objective Obj :
       {Objective::Locality, Objective::Parallelism, Objective::Both}) {
    SearchOptions A;
    A.Obj = Obj;
    A.Threads = 1;
    SearchOptions B = A;
    B.Threads = 8;
    SearchResult RA = searchTransformations(Nest, D, A);
    SearchResult RB = searchTransformations(Nest, D, B);

    ASSERT_EQ(RA.Best.has_value(), RB.Best.has_value());
    if (RA.Best) {
      EXPECT_EQ(RA.Best->Key, RB.Best->Key);
      EXPECT_EQ(RA.Best->Seq.str(), RB.Best->Seq.str());
      EXPECT_EQ(RA.Best->Cost, RB.Best->Cost);
      EXPECT_EQ(RA.Best->ParScore, RB.Best->ParScore);
    }
    ASSERT_EQ(RA.Top.size(), RB.Top.size());
    for (size_t I = 0; I < RA.Top.size(); ++I) {
      EXPECT_EQ(RA.Top[I].Key, RB.Top[I].Key);
      EXPECT_EQ(RA.Top[I].Cost, RB.Top[I].Cost);
    }
    EXPECT_EQ(RA.Stats.Enumerated, RB.Stats.Enumerated);
    EXPECT_EQ(RA.Stats.Pruned, RB.Stats.Pruned);
    EXPECT_EQ(RA.Stats.Deduped, RB.Stats.Deduped);
    EXPECT_EQ(RA.Stats.Leaves, RB.Stats.Leaves);
    EXPECT_EQ(RA.Stats.Legal, RB.Stats.Legal);
  }
}

TEST(Search, CancellationStopsBetweenWorkUnits) {
  LoopNest Nest = matmulNest();
  DepSet D = analyzeDependences(Nest);
  SearchOptions Opts;
  Opts.Obj = Objective::Locality;
  Opts.Beam = 2;
  Opts.Depth = 2;
  Opts.Threads = 4;
  SearchResult Plain = searchTransformations(Nest, D, Opts);
  ASSERT_TRUE(Plain.Best.has_value());

  // A predicate that never fires is polled once per unit and changes
  // nothing.
  std::atomic<unsigned> Polls{0};
  Opts.Cancelled = [&] {
    ++Polls;
    return false;
  };
  SearchResult Polled = searchTransformations(Nest, D, Opts);
  EXPECT_FALSE(Polled.Cancelled);
  ASSERT_TRUE(Polled.Best.has_value());
  EXPECT_EQ(Polled.Best->Key, Plain.Best->Key);
  EXPECT_EQ(Polled.Stats.Enumerated, Plain.Stats.Enumerated);
  EXPECT_EQ(Polled.Stats.Legal, Plain.Stats.Legal);
  // Baseline, then one poll per finished state and per expansion pair.
  EXPECT_GE(Polls.load(), 1 + Plain.Stats.Enumerated);

  // Firing part-way stops the search with nothing reported.
  unsigned Budget = Polls.load() / 2;
  std::atomic<unsigned> Seen{0};
  Opts.Cancelled = [&] { return ++Seen > Budget; };
  SearchResult Cut = searchTransformations(Nest, D, Opts);
  EXPECT_TRUE(Cut.Cancelled);
  EXPECT_FALSE(Cut.Best.has_value());
  EXPECT_TRUE(Cut.Top.empty());
  EXPECT_LT(Seen.load(), Polls.load());
}

TEST(Search, CanonicalKeysDedupePeepholeEquivalentPrefixes) {
  // Two RP steps compose into a single RP already in the step space, so
  // depth 2 must collapse many permutation chains onto visited states.
  LoopNest Nest = matmulNest();
  DepSet D = analyzeDependences(Nest);
  SearchOptions Opts;
  Opts.Obj = Objective::Locality;
  SearchResult R = searchTransformations(Nest, D, Opts);
  EXPECT_GT(R.Stats.Deduped, 0u);
  EXPECT_GT(R.Stats.Legal, 0u);
  EXPECT_LE(R.Stats.Legal, R.Stats.Leaves);
  EXPECT_LE(R.Stats.Leaves, R.Stats.Enumerated);
}

TEST(Search, ParallelismObjectiveFindsWavefrontForStencil) {
  // The Figure 1 stencil has dependences (1, 0) and (0, 1): no permutation
  // parallelizes a loop, a skew does (Lamport's hyperplane).
  LoopNest Nest = parse(
      "do i = 2, n - 1\n"
      "  do j = 2, n - 1\n"
      "    a(i, j) = (a(i - 1, j) + a(i, j - 1) + a(i + 1, j) + a(i, j + 1))"
      " / 4\n"
      "  enddo\n"
      "enddo\n");
  DepSet D = analyzeDependences(Nest);
  SearchOptions Opts;
  Opts.Obj = Objective::Parallelism;
  Opts.Depth = 1;
  SearchResult R = searchTransformations(Nest, D, Opts);
  ASSERT_TRUE(R.Best.has_value());
  EXPECT_FALSE(R.Best->ParallelLoops.empty());
  EXPECT_TRUE(isLegal(R.Best->Seq, Nest, D).Legal);
}

TEST(Search, AutoParPresetAgreesWithEngine) {
  // autoParallelize is a depth-1 preset of the engine; on matmul both
  // must parallelize i and j with the same score.
  LoopNest Nest = matmulNest();
  DepSet D = analyzeDependences(Nest);

  AutoParResult AP = autoParallelize(Nest, D);
  ASSERT_TRUE(AP.Best.has_value());

  SearchOptions Opts;
  Opts.Obj = Objective::Parallelism;
  Opts.Depth = 1;
  Opts.Candidates.TileSizes.clear();
  SearchResult R = searchTransformations(Nest, D, Opts);
  ASSERT_TRUE(R.Best.has_value());
  EXPECT_EQ(R.Best->ParallelLoops, AP.Best->ParallelLoops);
  EXPECT_EQ(R.Best->ParScore, AP.Best->Score);
  EXPECT_EQ(R.Best->Seq.str(), AP.Best->Seq.str());
}

TEST(Search, LocalityObjectiveRejectsOpaqueCallNests) {
  LoopNest Nest = parse("do i = 1, n\n  do j = colstr(i), colstr(i + 1)\n"
                        "    a(i, j) = 1\n  enddo\nenddo\n");
  DepSet D = analyzeDependences(Nest);
  SearchOptions Opts;
  Opts.Obj = Objective::Locality;
  SearchResult R = searchTransformations(Nest, D, Opts);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_FALSE(R.Best.has_value());

  // The parallelism objective never executes the nest, so it still runs.
  Opts.Obj = Objective::Parallelism;
  SearchResult RPar = searchTransformations(Nest, D, Opts);
  EXPECT_TRUE(RPar.Error.empty()) << RPar.Error;
}

TEST(Search, ExplicitBindingsOverrideDefaults) {
  LoopNest Nest = matmulNest();
  DepSet D = analyzeDependences(Nest);
  SearchOptions Opts;
  Opts.Obj = Objective::Locality;
  Opts.Depth = 1;
  Opts.CostParams["n"] = 6; // tiny: everything fits in cache
  SearchResult R = searchTransformations(Nest, D, Opts);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  ASSERT_TRUE(R.Best.has_value());
  // 3 arrays x 36 elements x 8B = under 1 KiB working set in an 8 KiB
  // cache: only cold misses remain, far below the n=24 default regime.
  EXPECT_LT(R.Best->MissRatio, 0.05);
}

TEST(Search, StepCandidatesAreBoundedAndOrdered) {
  CandidateOptions Opts;
  std::vector<TemplateRef> C3 = stepCandidates(3, Opts);
  // 3! * 2^3 - 1 signed permutations, plus wavefronts, blocks, tiles.
  EXPECT_GT(C3.size(), 47u);
  // Deterministic: two calls enumerate identically.
  std::vector<TemplateRef> Again = stepCandidates(3, Opts);
  ASSERT_EQ(C3.size(), Again.size());
  for (size_t I = 0; I < C3.size(); ++I)
    EXPECT_EQ(C3[I]->str(), Again[I]->str());

  // Deep nests degrade to pairwise interchanges + single reversals.
  std::vector<TemplateRef> C6 = stepCandidates(6, Opts);
  for (const TemplateRef &T : C6)
    if (T->kind() == TransformTemplate::Kind::ReversePermute) {
      // No full 6-loop signed permutation enumeration: candidate count
      // stays polynomial.
      SUCCEED();
    }
  EXPECT_LT(C6.size(), 200u);
}

} // namespace
