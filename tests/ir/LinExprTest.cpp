//===- tests/ir/LinExprTest.cpp --------------------------------------------===//

#include "ir/LinExpr.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

ExprRef parse(const std::string &S) {
  ErrorOr<ExprRef> E = parseExpr(S);
  EXPECT_TRUE(static_cast<bool>(E)) << E.message();
  return *E;
}

TEST(LinExpr, LinearizesSumsAndScales) {
  LinExpr L = LinExpr::fromExpr(parse("2*i + 3*j - i + 7"));
  EXPECT_EQ(L.coeffOf("i"), 1);
  EXPECT_EQ(L.coeffOf("j"), 3);
  EXPECT_EQ(L.constant(), 7);
  EXPECT_TRUE(L.allAtomsAreVars());
}

TEST(LinExpr, CancellationDropsTerms) {
  LinExpr L = LinExpr::fromExpr(parse("i - i + 4"));
  EXPECT_TRUE(L.isConst());
  EXPECT_EQ(L.constant(), 4);
}

TEST(LinExpr, OpaqueAtoms) {
  LinExpr L = LinExpr::fromExpr(parse("2*colstr(j) + i"));
  EXPECT_EQ(L.coeffOf("i"), 1);
  EXPECT_EQ(L.coeffOf("j"), 0); // j hides inside the call atom
  EXPECT_TRUE(L.dependsOn("j"));
  EXPECT_TRUE(L.hasVarInsideOpaqueAtom("j"));
  EXPECT_FALSE(L.hasVarInsideOpaqueAtom("i"));
  EXPECT_FALSE(L.allAtomsAreVars());
}

TEST(LinExpr, ProductOfNonConstantsIsOpaque) {
  LinExpr L = LinExpr::fromExpr(parse("i*j + 2*i"));
  EXPECT_EQ(L.coeffOf("i"), 2);
  EXPECT_TRUE(L.hasVarInsideOpaqueAtom("j"));
}

TEST(LinExpr, DivAndModFoldOnlyConstants) {
  EXPECT_EQ(LinExpr::fromExpr(parse("7 / 2")).constant(), 3);
  EXPECT_EQ(LinExpr::fromExpr(parse("mod(7, 4)")).constant(), 3);
  LinExpr L = LinExpr::fromExpr(parse("i / 2"));
  EXPECT_TRUE(L.hasVarInsideOpaqueAtom("i")); // flooring div is opaque
}

TEST(LinExpr, ArithmeticAndSubstitution) {
  LinExpr A = LinExpr::fromExpr(parse("2*i + n"));
  LinExpr B = LinExpr::fromExpr(parse("i - n + 1"));
  LinExpr S = A + B;
  EXPECT_EQ(S.coeffOf("i"), 3);
  EXPECT_EQ(S.coeffOf("n"), 0);
  EXPECT_EQ(S.constant(), 1);

  std::map<std::string, LinExpr> M{{"i", LinExpr::fromExpr(parse("y - 1"))}};
  LinExpr Sub = A.substituted(M);
  EXPECT_EQ(Sub.coeffOf("y"), 2);
  EXPECT_EQ(Sub.coeffOf("n"), 1);
  EXPECT_EQ(Sub.constant(), -2);
}

TEST(LinExpr, ToExprRoundTrip) {
  LinExpr L = LinExpr::fromExpr(parse("2*i - j + 5"));
  EXPECT_EQ(L.toExpr()->str(), "2*i - j + 5");
  LinExpr Z;
  EXPECT_EQ(Z.toExpr()->str(), "0");
  LinExpr NegOnly = LinExpr::fromExpr(parse("0 - j"));
  EXPECT_EQ(NegOnly.toExpr()->str(), "-j");
}

TEST(LinExpr, ExtractVar) {
  LinExpr L = LinExpr::fromExpr(parse("3*i + j"));
  EXPECT_EQ(L.extractVar("i"), 3);
  EXPECT_EQ(L.coeffOf("i"), 0);
  EXPECT_EQ(L.coeffOf("j"), 1);
  EXPECT_EQ(L.extractVar("zz"), 0);
}

TEST(Simplify, FoldsAndCanonicalizes) {
  EXPECT_EQ(simplify(parse("1 + 2*3"))->str(), "7");
  EXPECT_EQ(simplify(parse("i + 0"))->str(), "i");
  EXPECT_EQ(simplify(parse("1*i + 0*j"))->str(), "i");
  EXPECT_EQ(simplify(parse("(i + 1) - 1"))->str(), "i");
  EXPECT_EQ(simplify(parse("i / 1"))->str(), "i");
  EXPECT_EQ(simplify(parse("mod(i, 1)"))->str(), "0");
  EXPECT_EQ(simplify(parse("14 / 4"))->str(), "3");
}

TEST(Simplify, MinMaxFlattenDedupeAndFoldConstants) {
  EXPECT_EQ(simplify(parse("min(3, min(i, 5))"))->str(), "min(3, i)");
  EXPECT_EQ(simplify(parse("max(i, i)"))->str(), "i");
  EXPECT_EQ(simplify(parse("max(2, max(7, 3))"))->str(), "7");
  // Constant keeps its original position relative to other operands.
  EXPECT_EQ(simplify(parse("max(2, j - n + 1)"))->str(), "max(2, j - n + 1)");
  EXPECT_EQ(simplify(parse("max(j - n + 1, 2)"))->str(), "max(j - n + 1, 2)");
}

TEST(Simplify, RecursesIntoOpaqueNodes) {
  EXPECT_EQ(simplify(parse("colstr(j + 0) / 1"))->str(), "colstr(j)");
  EXPECT_EQ(simplify(parse("min(i + 0, 2*4)"))->str(), "min(i, 8)");
}

TEST(Simplify, MinMaxDedupKeepsFirstOccurrenceOrder) {
  EXPECT_EQ(simplify(parse("min(j, i, k, i, j, n)"))->str(), "min(j, i, k, n)");
  // Flattened operands join at the end of the scan, after the outer ones.
  EXPECT_EQ(simplify(parse("max(k, max(j, k), i, j)"))->str(),
            "max(k, i, j)");
  EXPECT_EQ(simplify(parse("min(n / 2, colstr(i), n / 2, i + 1, colstr(i))"))
                ->str(),
            "min(n / 2, colstr(i), i + 1)");
}

TEST(Simplify, MinMaxDedupDropsExactlyStructurallyEqualOperands) {
  // Equal operands built as distinct trees go; operands that differ
  // anywhere, including only in operand order below the top, stay.
  ExprRef I = Expr::var("i"), J = Expr::var("j"), N = Expr::var("n");
  std::vector<ExprRef> Ops = {
      Expr::add(Expr::var("i"), Expr::intConst(1)),
      Expr::add(I, Expr::intConst(1)),
      Expr::add(I, Expr::intConst(2)),
      Expr::floorDivE(N, Expr::intConst(2)),
      Expr::floorDivE(Expr::var("n"), Expr::intConst(2)),
      Expr::floorDivE(N, Expr::intConst(3)),
      Expr::call("colstr", {J}),
      Expr::call("colstr", {Expr::var("j")}),
      Expr::call("colstr", {I}),
      Expr::minE({I, J}),
      Expr::minE({Expr::var("i"), Expr::var("j")}),
      Expr::minE({J, I})};
  EXPECT_EQ(simplify(Expr::maxE(Ops))->str(),
            "max(i + 1, i + 2, n / 2, n / 3, colstr(j), colstr(i), "
            "min(i, j), min(j, i))");
}

TEST(Simplify, MinMaxDedupMatchesPairwiseEquality) {
  // Many operands, each drawn from a small pool of shapes so that equal
  // ones recur as distinct trees: the result must be the first
  // occurrence of each structurally distinct simplified operand, in
  // order - what a pairwise Expr::equals scan keeps.
  const char *Vars[] = {"i", "j", "n"};
  uint64_t State = 0x5eed;
  auto Next = [&](uint64_t Bound) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return (State >> 33) % Bound;
  };
  std::vector<ExprRef> Ops;
  for (unsigned K = 0; K < 600; ++K) {
    ExprRef Lin = Expr::add(Expr::var(Vars[Next(3)]),
                            Expr::intConst(static_cast<int64_t>(Next(4))));
    switch (Next(3)) {
    case 0:
      Ops.push_back(Expr::floorDivE(Lin, Expr::intConst(2 + Next(2))));
      break;
    case 1:
      Ops.push_back(Expr::call("f", {Lin, Expr::var(Vars[Next(3)])}));
      break;
    default:
      Ops.push_back(Expr::var(Vars[Next(3)]));
      break;
    }
  }
  std::vector<ExprRef> Want;
  for (const ExprRef &Op : Ops) {
    ExprRef S = simplify(Op);
    bool Seen = false;
    for (const ExprRef &W : Want)
      Seen = Seen || W->equals(*S);
    if (!Seen)
      Want.push_back(S);
  }
  // Dozens of distinct operands, each also repeated as a separately
  // built tree.
  ASSERT_GT(Want.size(), 40u);
  ASSERT_LT(Want.size(), Ops.size() / 4);
  ExprRef Got = simplify(Expr::minE(Ops));
  EXPECT_TRUE(Got->equals(*Expr::minE(Want))) << Got->str();
}

} // namespace
