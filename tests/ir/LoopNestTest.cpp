//===- tests/ir/LoopNestTest.cpp -------------------------------------------===//

#include "ir/LoopNest.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

LoopNest stencil() {
  ErrorOr<LoopNest> N =
      parseLoopNest("do i = 2, n - 1\n"
                    "  do j = 2, n - 1\n"
                    "    a(i, j) = a(i - 1, j) + b(j)\n"
                    "    b(j) = a(i, j)\n"
                    "  enddo\n"
                    "enddo\n");
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return *N;
}

TEST(LoopNest, LoopIndexOf) {
  LoopNest N = stencil();
  EXPECT_EQ(N.loopIndexOf("i"), 0);
  EXPECT_EQ(N.loopIndexOf("j"), 1);
  EXPECT_EQ(N.loopIndexOf("zz"), -1);
  EXPECT_TRUE(N.bindsVar("i"));
  EXPECT_FALSE(N.bindsVar("n"));
}

TEST(LoopNest, CollectReadsAndWrites) {
  LoopNest N = stencil();
  std::vector<ArrayRef> Writes, Reads;
  N.collectWrites(Writes);
  N.collectReads(Reads);
  ASSERT_EQ(Writes.size(), 2u);
  EXPECT_EQ(Writes[0].str(), "a(i, j)");
  EXPECT_EQ(Writes[1].str(), "b(j)");
  ASSERT_EQ(Reads.size(), 3u);
  EXPECT_EQ(Reads[0].str(), "a(i - 1, j)");
  EXPECT_EQ(Reads[1].str(), "b(j)");
  EXPECT_EQ(Reads[2].str(), "a(i, j)");
}

TEST(LoopNest, InitStatementsPrintBeforeBody) {
  LoopNest N = stencil();
  N.Inits.push_back(InitStmt{"t", Expr::add(Expr::var("i"), Expr::var("j"))});
  std::string S = N.str();
  size_t InitPos = S.find("t = i + j");
  size_t BodyPos = S.find("a(i, j) =");
  ASSERT_NE(InitPos, std::string::npos);
  ASSERT_NE(BodyPos, std::string::npos);
  EXPECT_LT(InitPos, BodyPos);
}

TEST(LoopNest, ValidateCatchesMissingBounds) {
  LoopNest N;
  N.Loops.push_back(Loop("i", Expr::intConst(1), nullptr, Expr::intConst(1)));
  EXPECT_NE(N.validate().find("missing"), std::string::npos);
}

TEST(LoopNest, SealAsSourceSetsBodyIndexVars) {
  LoopNest N;
  N.Loops.push_back(
      Loop("p", Expr::intConst(1), Expr::intConst(4), Expr::intConst(1)));
  N.sealAsSource();
  EXPECT_EQ(N.BodyIndexVars, std::vector<std::string>{"p"});
}

TEST(LoopNest, NestedArraySubscriptReadsAreCollected) {
  ErrorOr<LoopNest> N = parseLoopNest("arrays idx\n"
                                      "do i = 1, n\n"
                                      "  a(i) = a(idx(i))\n"
                                      "enddo\n");
  ASSERT_TRUE(static_cast<bool>(N)) << N.message();
  std::vector<ArrayRef> Reads;
  N->collectReads(Reads);
  // Both a(idx(i)) and the inner idx(i) are array reads.
  ASSERT_EQ(Reads.size(), 2u);
  EXPECT_EQ(Reads[0].str(), "a(idx(i))");
  EXPECT_EQ(Reads[1].str(), "idx(i)");
}

TEST(LoopNest, EqualsComparesTheNestAsWritten) {
  auto parse = [](const char *Src) {
    ErrorOr<LoopNest> N = parseLoopNest(Src);
    EXPECT_TRUE(static_cast<bool>(N)) << N.message();
    return *N;
  };
  LoopNest A = stencil(), B = stencil();
  EXPECT_TRUE(A.equals(B));
  EXPECT_EQ(A.structuralHash(), B.structuralHash());
  // Unlike the canonical fingerprint, renamed index variables, reordered
  // terms and a changed loop kind all make a different nest.
  const char *Variants[] = {
      "do p = 2, n - 1\n  do q = 2, n - 1\n    a(p, q) = a(p - 1, q) + b(q)\n"
      "    b(q) = a(p, q)\n  enddo\nenddo\n",
      "do i = 2, n - 1\n  do j = 2, -1 + n\n    a(i, j) = a(i - 1, j) + b(j)\n"
      "    b(j) = a(i, j)\n  enddo\nenddo\n",
      "do i = 2, n - 1\n  pardo j = 2, n - 1\n"
      "    a(i, j) = a(i - 1, j) + b(j)\n    b(j) = a(i, j)\n  enddo\nenddo\n",
  };
  for (const char *Src : Variants) {
    LoopNest V = parse(Src);
    EXPECT_FALSE(A.equals(V)) << Src;
    EXPECT_NE(A.structuralHash(), V.structuralHash()) << Src;
  }
}

} // namespace
