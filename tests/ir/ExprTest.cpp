//===- tests/ir/ExprTest.cpp -----------------------------------------------===//

#include "ir/Expr.h"
#include "support/MathUtils.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

/// Minimal environment for evaluation tests.
class TestEnv : public ExprEnv {
public:
  std::map<std::string, int64_t> Vars;
  std::optional<int64_t> lookup(const std::string &Name) const override {
    auto It = Vars.find(Name);
    if (It == Vars.end())
      return std::nullopt;
    return It->second;
  }
  int64_t call(const std::string &Name,
               const std::vector<int64_t> &Args) const override {
    if (Name == "twice")
      return 2 * Args[0];
    ADD_FAILURE() << "unexpected call " << Name;
    return 0;
  }
};

TEST(Expr, PrintingPrecedence) {
  ExprRef E = Expr::mul(Expr::add(Expr::var("a"), Expr::var("b")),
                        Expr::intConst(3));
  EXPECT_EQ(E->str(), "(a + b)*3");
  ExprRef E2 = Expr::add(Expr::var("a"), Expr::mul(Expr::var("b"),
                                                   Expr::intConst(3)));
  EXPECT_EQ(E2->str(), "a + b*3");
  ExprRef E3 = Expr::sub(Expr::var("a"), Expr::sub(Expr::var("b"),
                                                   Expr::var("c")));
  EXPECT_EQ(E3->str(), "a - (b - c)");
  ExprRef E4 = Expr::floorDivE(Expr::add(Expr::var("a"), Expr::intConst(1)),
                               Expr::intConst(2));
  EXPECT_EQ(E4->str(), "(a + 1) / 2");
}

TEST(Expr, NegationSugar) {
  EXPECT_EQ(Expr::neg(Expr::var("x"))->str(), "-x");
  EXPECT_EQ(Expr::add(Expr::var("y"), Expr::neg(Expr::var("x")))->str(),
            "y + -x"); // additive context keeps the bare unary minus
  EXPECT_EQ(Expr::mul(Expr::neg(Expr::var("x")), Expr::intConst(3))->str(),
            "(-x)*3");
}

TEST(Expr, MinMaxAndCallsPrintInCallSyntax) {
  ExprRef E = Expr::minE({Expr::var("a"), Expr::intConst(2)});
  EXPECT_EQ(E->str(), "min(a, 2)");
  ExprRef M = Expr::modE(Expr::var("a"), Expr::intConst(4));
  EXPECT_EQ(M->str(), "mod(a, 4)");
  ExprRef C = Expr::call("colstr", {Expr::var("j")});
  EXPECT_EQ(C->str(), "colstr(j)");
}

TEST(Expr, StructuralEquality) {
  ExprRef A = Expr::add(Expr::var("i"), Expr::intConst(1));
  ExprRef B = Expr::add(Expr::var("i"), Expr::intConst(1));
  ExprRef C = Expr::add(Expr::intConst(1), Expr::var("i"));
  EXPECT_TRUE(A->equals(*B));
  EXPECT_FALSE(A->equals(*C)); // structural, not semantic
}

TEST(Expr, StructuralHashFollowsEquality) {
  auto Tree = [](const char *V, int64_t K) {
    return Expr::minE({Expr::floorDivE(Expr::add(Expr::var(V),
                                                 Expr::intConst(K)),
                                       Expr::intConst(4)),
                       Expr::call("colstr", {Expr::var("n")})});
  };
  // Equal trees built apart hash equal; the hash is order-sensitive, as
  // equals() is, and sees leaves deep in the tree.
  EXPECT_EQ(Tree("i", 3)->structuralHash(), Tree("i", 3)->structuralHash());
  EXPECT_NE(Tree("i", 3)->structuralHash(), Tree("i", 2)->structuralHash());
  EXPECT_NE(Tree("i", 3)->structuralHash(), Tree("j", 3)->structuralHash());
  ExprRef I = Expr::var("i"), J = Expr::var("j");
  EXPECT_NE(Expr::minE({I, J})->structuralHash(),
            Expr::minE({J, I})->structuralHash());
  EXPECT_NE(Expr::minE({I, J})->structuralHash(),
            Expr::maxE({I, J})->structuralHash());
}

TEST(Expr, ContainsAndCollectVars) {
  ExprRef E = Expr::add(Expr::call("f", {Expr::var("k")}),
                        Expr::mul(Expr::var("i"), Expr::var("n")));
  EXPECT_TRUE(E->containsVar("k"));
  EXPECT_TRUE(E->containsVar("i"));
  EXPECT_FALSE(E->containsVar("j"));
  std::set<std::string> Vars;
  E->collectVars(Vars);
  EXPECT_EQ(Vars, (std::set<std::string>{"i", "k", "n"}));
}

TEST(Expr, Substitute) {
  ExprRef E = Expr::add(Expr::var("i"), Expr::var("j"));
  std::map<std::string, ExprRef> M{{"i", Expr::intConst(5)}};
  EXPECT_EQ(Expr::substitute(E, M)->str(), "5 + j");
  // Unchanged subtrees are shared, not copied.
  ExprRef F = Expr::var("k");
  EXPECT_EQ(Expr::substitute(F, M), F);
}

TEST(Expr, EvaluateArithmetic) {
  TestEnv Env;
  Env.Vars = {{"i", 7}, {"j", -3}};
  EXPECT_EQ(Expr::add(Expr::var("i"), Expr::var("j"))->evaluate(Env), 4);
  EXPECT_EQ(Expr::floorDivE(Expr::var("j"), Expr::intConst(2))->evaluate(Env),
            -2); // flooring
  EXPECT_EQ(Expr::modE(Expr::var("j"), Expr::intConst(2))->evaluate(Env), 1);
  EXPECT_EQ(Expr::maxE({Expr::var("i"), Expr::intConst(10)})->evaluate(Env),
            10);
  EXPECT_EQ(Expr::minE({Expr::var("i"), Expr::intConst(10)})->evaluate(Env),
            7);
  EXPECT_EQ(Expr::call("twice", {Expr::var("i")})->evaluate(Env), 14);
}

TEST(Expr, SubtractionIsChecked) {
  TestEnv Env;
  Env.Vars = {{"x", INT64_MIN}, {"y", INT64_MAX}};
  // 5 - INT64_MIN does not fit; negating the right operand first would
  // itself overflow and slip past the guard.
  {
    OverflowGuard Guard;
    EXPECT_EQ(Expr::sub(Expr::intConst(5), Expr::var("x"))->evaluate(Env),
              INT64_MAX);
    EXPECT_TRUE(Guard.triggered());
  }
  {
    OverflowGuard Guard;
    EXPECT_EQ(Expr::sub(Expr::intConst(-5), Expr::var("y"))->evaluate(Env),
              INT64_MIN);
    EXPECT_TRUE(Guard.triggered());
  }
  {
    OverflowGuard Guard;
    EXPECT_EQ(Expr::sub(Expr::intConst(-1), Expr::var("x"))->evaluate(Env),
              INT64_MAX);
    EXPECT_EQ(Expr::sub(Expr::var("x"), Expr::var("x"))->evaluate(Env), 0);
    EXPECT_FALSE(Guard.triggered());
  }
}

TEST(Expr, DivisionByZeroFollowsTheGuardPolicy) {
  TestEnv Env;
  Env.Vars = {{"i", 7}, {"z", 0}};
  OverflowGuard Guard;
  EXPECT_EQ(Expr::floorDivE(Expr::var("i"), Expr::var("z"))->evaluate(Env), 0);
  EXPECT_TRUE(Guard.triggered());
  Guard.reset();
  EXPECT_EQ(Expr::modE(Expr::var("i"), Expr::var("z"))->evaluate(Env), 0);
  EXPECT_TRUE(Guard.triggered());
}

TEST(Expr, CeilDivByConst) {
  TestEnv Env;
  Env.Vars = {{"x", 7}};
  EXPECT_EQ(Expr::ceilDivByConst(Expr::var("x"), 2)->evaluate(Env), 4);
  Env.Vars["x"] = -7;
  EXPECT_EQ(Expr::ceilDivByConst(Expr::var("x"), 2)->evaluate(Env), -3);
  // Divisor 1 is the identity.
  ExprRef X = Expr::var("x");
  EXPECT_EQ(Expr::ceilDivByConst(X, 1), X);
}

TEST(Expr, ConstValue) {
  EXPECT_EQ(Expr::intConst(9)->constValue(), 9);
  EXPECT_FALSE(Expr::var("x")->constValue().has_value());
}

} // namespace
