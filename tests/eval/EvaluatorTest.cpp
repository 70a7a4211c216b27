//===- tests/eval/EvaluatorTest.cpp ----------------------------------------===//

#include "eval/Evaluator.h"
#include "ir/Parser.h"
#include "support/MathUtils.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace irlt;

namespace {

LoopNest parse(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return *N;
}

TEST(Evaluator, EnumeratesInstancesInOrder) {
  LoopNest N = parse("do i = 1, 2\n  do j = 1, 2\n    a(i, j) = i\n"
                     "  enddo\nenddo\n");
  EvalConfig C;
  ArrayStore S;
  EvalResult R = evaluate(N, C, S);
  ASSERT_EQ(R.Instances.size(), 4u);
  EXPECT_EQ(R.Instances[0], (std::vector<int64_t>{1, 1}));
  EXPECT_EQ(R.Instances[1], (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(R.Instances[2], (std::vector<int64_t>{2, 1}));
  EXPECT_EQ(R.Instances[3], (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(R.LevelCounts, (std::vector<uint64_t>{2, 4}));
  EXPECT_EQ(R.OrdinalTuples[3], (std::vector<int64_t>{1, 1}));
}

TEST(Evaluator, NegativeStepsAndEmptyLoops) {
  LoopNest N = parse("do i = 5, 1, -2\n  a(i) = i\nenddo\n");
  EvalConfig C;
  ArrayStore S;
  EvalResult R = evaluate(N, C, S);
  ASSERT_EQ(R.Instances.size(), 3u);
  EXPECT_EQ(R.Instances[0][0], 5);
  EXPECT_EQ(R.Instances[2][0], 1);

  LoopNest Empty = parse("do i = 5, 1\n  a(i) = i\nenddo\n");
  EvalResult RE = evaluate(Empty, C, S);
  EXPECT_TRUE(RE.Instances.empty());
}

TEST(Evaluator, ArraySemantics) {
  LoopNest N = parse("do i = 2, 5\n  a(i) = a(i - 1) + 1\nenddo\n");
  EvalConfig C;
  ArrayStore S;
  S.write("a", {1}, 10);
  evaluate(N, C, S);
  EXPECT_EQ(S.read("a", {5}), 14);
  EXPECT_EQ(S.read("a", {3}), 12);
  EXPECT_EQ(S.read("a", {99}), 0); // unwritten cells read 0
}

TEST(Evaluator, InitStatementsDefineBodyVars) {
  LoopNest N = parse("do i = 1, 3\n  a(i) = i\nenddo\n");
  // Simulate a transformed nest: loop over y, recover i = 4 - y.
  LoopNest T = N;
  T.Loops[0].IndexVar = "y";
  T.Inits.push_back(InitStmt{
      "i", Expr::sub(Expr::intConst(4), Expr::var("y"))});
  EvalConfig C;
  ArrayStore S1, S2;
  EvalResult R1 = evaluate(N, C, S1);
  EvalResult R2 = evaluate(T, C, S2);
  // Same instances, reversed order; same final store.
  EXPECT_EQ(R2.Instances[0], R1.Instances[2]);
  EXPECT_TRUE(S1 == S2);
}

TEST(Evaluator, ParamsAndOpaqueFunctions) {
  LoopNest N = parse("do i = 1, n\n  a(i) = f(i) + m\nenddo\n");
  EvalConfig C;
  C.Params = {{"n", 3}, {"m", 100}};
  C.Funcs["f"] = [](const std::vector<int64_t> &A) { return A[0] * A[0]; };
  ArrayStore S;
  evaluate(N, C, S);
  EXPECT_EQ(S.read("a", {3}), 109);
}

TEST(Evaluator, BuiltinFunctions) {
  LoopNest N = parse("do i = 1, 1\n  a(i) = sqrt(16) + abs(0 - 3) + sgn(0 - 9)\n"
                     "enddo\n");
  EvalConfig C;
  ArrayStore S;
  evaluate(N, C, S);
  EXPECT_EQ(S.read("a", {1}), 4 + 3 - 1);
}

TEST(Evaluator, FaultsRecordOnTheGuard) {
  // Division by zero, sqrt of a negative value, |INT64_MIN| and an
  // unbound variable record on the live guard and yield 0 (or saturate)
  // instead of aborting.
  const char *Faulting[] = {
      "arrays b, c\ndo i = 1, 2\n  a(i) = b(i) / c(i)\nenddo\n",
      "arrays b\ndo i = 1, 2\n  a(i) = mod(i, b(i))\nenddo\n",
      "arrays b\ndo i = 1, 2\n  a(i) = sqrt(b(i) - 1)\nenddo\n",
      "do i = 1, 2\n  a(i) = abs(0 - 9223372036854775807 - i)\nenddo\n",
      "do i = 1, 2\n  a(i) = a(i) + q\nenddo\n",
  };
  for (const char *Src : Faulting) {
    LoopNest N = parse(Src);
    EvalConfig C;
    ArrayStore S;
    OverflowGuard Guard;
    EvalResult R = evaluate(N, C, S);
    EXPECT_TRUE(Guard.triggered()) << Src;
    EXPECT_EQ(R.Instances.size(), 2u) << Src;
  }
  LoopNest N = parse(Faulting[0]);
  EvalConfig C;
  ArrayStore S;
  OverflowGuard Guard;
  evaluate(N, C, S);
  EXPECT_EQ(S.read("a", {1}), 0);
}

TEST(Evaluator, IndexWrapsPastInt64MaxAndStopsAtTheBudget) {
  // The index steps past INT64_MAX to INT64_MIN, which is still below the
  // upper bound, so the loop runs on until the iteration budget stops it.
  LoopNest N = parse("do i = 9223372036854775806, 9223372036854775807\n"
                     "  a(1) = a(1) + 1\n"
                     "enddo\n");
  EvalConfig C;
  C.MaxInstances = 1000;
  ArrayStore S;
  EvalResult R = evaluate(N, C, S);
  EXPECT_TRUE(R.LimitHit);
  ASSERT_GE(R.Instances.size(), 4u);
  EXPECT_EQ(R.Instances[0], (std::vector<int64_t>{INT64_MAX - 1}));
  EXPECT_EQ(R.Instances[1], (std::vector<int64_t>{INT64_MAX}));
  EXPECT_EQ(R.Instances[2], (std::vector<int64_t>{INT64_MIN}));
  EXPECT_EQ(R.Instances[3], (std::vector<int64_t>{INT64_MIN + 1}));
  EXPECT_EQ(S.read("a", {1}), static_cast<int64_t>(R.Instances.size()));
}

TEST(Evaluator, AccessTraceWithOwners) {
  LoopNest N =
      parse("arrays b\ndo i = 1, 2\n  a(i) = b(i) + b(i + 1)\nenddo\n");
  EvalConfig C;
  C.RecordAccesses = true;
  ArrayStore S;
  EvalResult R = evaluate(N, C, S);
  // Per iteration: two reads then one write.
  ASSERT_EQ(R.Accesses.size(), 6u);
  EXPECT_FALSE(R.Accesses[0].IsWrite);
  EXPECT_TRUE(R.Accesses[2].IsWrite);
  EXPECT_EQ(R.Accesses[2].Array, "a");
  EXPECT_EQ(R.AccessOwner,
            (std::vector<uint64_t>{0, 0, 0, 1, 1, 1}));
}

TEST(Evaluator, MultiStatementBodiesExecuteInOrder) {
  LoopNest N = parse("do i = 1, 3\n"
                     "  a(i) = b(i) + 1\n"
                     "  b(i + 1) = a(i)\n"
                     "enddo\n");
  EvalConfig C;
  ArrayStore S;
  evaluate(N, C, S);
  // b(2) = a(1) = 1; a(2) = b(2)+1 = 2; b(4) = a(3) = 3.
  EXPECT_EQ(S.read("b", {4}), 3);
}

TEST(Evaluator, ParallelismStats) {
  LoopNest N = parse("do i = 1, 4\n  pardo j = 1, 8\n    a(i, j) = 1\n"
                     "  enddo\nenddo\n");
  EvalConfig C;
  ArrayStore S;
  EvalResult R = evaluate(N, C, S);
  ParallelismStats P = parallelismStats(N, R);
  EXPECT_EQ(P.Instances, 32u);
  EXPECT_EQ(P.SequentialSteps, 4u);
  EXPECT_DOUBLE_EQ(P.AvgParallelism, 8.0);
  EXPECT_EQ(P.MaxParallelism, 8u);
}

TEST(Evaluator, MinMaxDivModBoundsEvaluate) {
  LoopNest N = parse("do i = max(2, m), min(n, 9)\n"
                     "  do j = i / 2, mod(i, 3) + 5\n"
                     "    a(i, j) = 1\n"
                     "  enddo\nenddo\n");
  EvalConfig C;
  C.Params = {{"m", 4}, {"n", 20}};
  ArrayStore S;
  EvalResult R = evaluate(N, C, S);
  EXPECT_FALSE(R.Instances.empty());
  for (const std::vector<int64_t> &I : R.Instances) {
    EXPECT_GE(I[0], 4);
    EXPECT_LE(I[0], 9);
    EXPECT_GE(I[1], I[0] / 2);
  }
}

} // namespace
