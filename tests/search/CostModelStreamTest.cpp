//===- tests/search/CostModelStreamTest.cpp - Access stream vs interpreter ===//
//
// Differential test of the cost model's compiled access stream: for every
// case, CostModel::missRatio must agree bit for bit (nullopt included)
// with the measurement through the interpreter, kept here as the
// reference: evaluate() with access recording, a layout inferred from the
// trace, and replayTrace().
//
//===----------------------------------------------------------------------===//

#include "driver/Script.h"
#include "eval/Evaluator.h"
#include "fuzz/NestGen.h"
#include "fuzz/ScriptGen.h"
#include "ir/Parser.h"
#include "search/Candidates.h"
#include "search/CostModel.h"
#include "support/MathUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

using namespace irlt;
using namespace irlt::search;

namespace {

/// The reference measurement: run the transformed nest in the
/// interpreter, lay the arrays out from the trace, replay the trace.
std::optional<double> referenceMissRatio(const LoopNest &Nest,
                                         const TransformSequence &Seq,
                                         const CostModelOptions &Opts) {
  OverflowGuard Guard;
  ErrorOr<LoopNest> Transformed = applySequence(Seq, Nest);
  if (Guard.triggered() || !Transformed)
    return std::nullopt;

  EvalConfig Config;
  Config.Params = Opts.Params;
  Config.RecordTrace = false;
  Config.RecordAccesses = true;
  Config.MaxInstances = Opts.MaxInstances;
  ArrayStore Store;
  EvalResult R = evaluate(*Transformed, Config, Store);
  if (Guard.triggered() || R.LimitHit)
    return std::nullopt;
  if (R.Accesses.empty())
    return 0.0;

  struct Extent {
    std::vector<int64_t> Lows, Highs;
  };
  std::map<std::string, Extent> Extents;
  for (const MemAccess &A : R.Accesses) {
    auto [It, New] = Extents.try_emplace(A.Array);
    Extent &E = It->second;
    if (New) {
      E.Lows = A.Subs;
      E.Highs = A.Subs;
      continue;
    }
    if (E.Lows.size() != A.Subs.size())
      return std::nullopt; // inconsistent arity; layout undefined
    for (size_t D = 0; D < A.Subs.size(); ++D) {
      E.Lows[D] = std::min(E.Lows[D], A.Subs[D]);
      E.Highs[D] = std::max(E.Highs[D], A.Subs[D]);
    }
  }
  ArrayLayout Layout;
  for (auto &[Name, E] : Extents)
    Layout.declare(Name, E.Lows, E.Highs);
  return replayTrace(R.Accesses, Layout, Opts.Cache);
}

LoopNest parse(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message() << "\n" << Src;
  return N ? *N : LoopNest();
}

/// Every free symbol of \p Nest, and the symbolic sizes generated scripts
/// use, bound to \p N.
CostModelOptions smallOptions(const LoopNest &Nest, int64_t N = 8) {
  CostModelOptions O;
  O.Params = CostModel::defaultBindings(Nest);
  for (const char *Size : {"n", "m", "b"})
    O.Params[Size] = N;
  for (auto &[Name, V] : O.Params)
    V = N;
  return O;
}

/// Tallies of one differential sweep.
struct Tally {
  unsigned Cases = 0;
  unsigned Measured = 0;
};

/// Compares the stream with the reference on (\p Nest, \p Seq); \returns
/// the stream's answer.
std::optional<double> expectSame(const LoopNest &Nest,
                                 const TransformSequence &Seq,
                                 const CostModelOptions &Opts,
                                 const std::string &What, Tally *T = nullptr) {
  std::optional<double> Ref = referenceMissRatio(Nest, Seq, Opts);
  CostModel CM(Nest, Opts);
  std::optional<double> Got = CM.missRatio(Seq, Seq.str());
  EXPECT_EQ(Ref.has_value(), Got.has_value())
      << What << "\nsequence: " << Seq.str() << "\nnest:\n"
      << Nest.str();
  if (Ref && Got) {
    EXPECT_EQ(std::bit_cast<uint64_t>(*Ref), std::bit_cast<uint64_t>(*Got))
        << What << ": reference " << *Ref << ", stream " << *Got
        << "\nsequence: " << Seq.str() << "\nnest:\n"
        << Nest.str();
  }
  if (T) {
    ++T->Cases;
    T->Measured += Got.has_value();
  }
  return Got;
}

/// The identity, every depth-1 search step, and \p Scripts generated
/// scripts of \p Nest.
void sweep(const LoopNest &Nest, const CostModelOptions &Opts,
           fuzz::Rng &R, unsigned Scripts, const std::string &What,
           Tally &T, bool OverflowScripts = false) {
  expectSame(Nest, TransformSequence(), Opts, What + " identity", &T);
  for (const TemplateRef &Step : stepCandidates(Nest.numLoops(), {})) {
    TransformSequence Seq;
    Seq.append(Step);
    expectSame(Nest, Seq, Opts, What + " step", &T);
  }
  fuzz::ScriptGenOptions SO;
  SO.MaxSteps = 3;
  SO.OverflowMode = OverflowScripts;
  for (unsigned K = 0; K < Scripts; ++K) {
    fuzz::GeneratedScript G = fuzz::generateScript(R, Nest.numLoops(), SO);
    ErrorOr<TransformSequence> Seq =
        parseTransformScript(fuzz::joinScript(G.Lines), Nest.numLoops());
    if (Seq)
      expectSame(Nest, *Seq, Opts, What + " script", &T);
  }
}

const char *const PaperNests[] = {
    // Figure 6: matrix multiply.
    "arrays B, C\n"
    "do i = 1, n\n"
    "  do j = 1, n\n"
    "    do k = 1, n\n"
    "      A(i, j) += B(i, k) * C(k, j)\n"
    "    enddo\n"
    "  enddo\n"
    "enddo\n",
    // Figure 1(a): the five-point stencil.
    "do i = 2, n - 1\n"
    "  do j = 2, n - 1\n"
    "    a(i, j) = (a(i, j) + a(i - 1, j) + a(i, j - 1) + a(i + 1, j) + "
    "a(i, j + 1)) / 5\n"
    "  enddo\n"
    "enddo\n",
    // Figure 4(a): a triangular nest.
    "do i = 1, n\n"
    "  do j = 1, i\n"
    "    a(i, j) = a(i, j) + 1\n"
    "  enddo\n"
    "enddo\n",
    // A 3-deep nest with a diagonal dependence.
    "do i1 = 2, n\n"
    "  do i2 = 2, n\n"
    "    do i3 = 2, n\n"
    "      a(i1, i2, i3) = a(i1 - 1, i2 - 1, i3 - 1) + 1\n"
    "    enddo\n"
    "  enddo\n"
    "enddo\n",
};

} // namespace

TEST(CostModelStream, PaperNestsMatchInterpreter) {
  fuzz::Rng R(11);
  Tally T;
  for (const char *Src : PaperNests) {
    LoopNest Nest = parse(Src);
    sweep(Nest, smallOptions(Nest), R, 4, "paper nest", T);
  }
  EXPECT_GT(T.Measured, 100u) << "of " << T.Cases;
}

TEST(CostModelStream, DefaultBindingsOnMatmul) {
  // The search's own setting: every free symbol bound to 24.
  LoopNest Nest = parse(PaperNests[0]);
  CostModelOptions O;
  O.Params = CostModel::defaultBindings(Nest);
  for (const char *Script :
       {"", "interchange 2 3", "block 1 3 8 8 8", "reverse 1\nblock 2 3 4 4"}) {
    ErrorOr<TransformSequence> Seq = parseTransformScript(Script, 3);
    ASSERT_TRUE(static_cast<bool>(Seq)) << Seq.message();
    std::optional<double> M = expectSame(Nest, *Seq, O, Script);
    EXPECT_TRUE(M.has_value()) << Script;
  }
}

TEST(CostModelStream, GeneratedNestsMatchInterpreter) {
  Tally T;
  for (uint64_t K = 0; K < 120; ++K) {
    fuzz::Rng R(fuzz::caseSeed(0x5eed, K));
    fuzz::NestSpec Spec = fuzz::generateNest(R, {});
    LoopNest Nest = parse(Spec.render());
    sweep(Nest, smallOptions(Nest), R, 2, "generated nest " + std::to_string(K),
          T);
  }
  EXPECT_GT(T.Measured, T.Cases / 2) << "of " << T.Cases;
}

TEST(CostModelStream, OverflowModeNestsMatchInterpreter) {
  Tally T;
  for (uint64_t K = 0; K < 8; ++K) {
    fuzz::Rng R(fuzz::caseSeed(0x0f10, K));
    fuzz::NestGenOptions NO;
    NO.OverflowMode = true;
    LoopNest Nest = parse(fuzz::generateNest(R, NO).render());
    // Huge bounds run into the budget; a small one keeps that cheap.
    CostModelOptions O = smallOptions(Nest);
    O.MaxInstances = 2'000;
    sweep(Nest, O, R, 2, "overflow nest " + std::to_string(K), T,
          /*OverflowScripts=*/true);
  }
  EXPECT_GT(T.Cases, 0u);
}

TEST(CostModelStream, ValueDependentAddressesMatchInterpreter) {
  fuzz::Rng R(7);
  Tally T;
  const char *Nests[] = {
      // An indirect subscript.
      "arrays b\n"
      "do i = 1, n\n"
      "  do j = 1, n\n"
      "    a(b(i) + j, i) = a(b(i) + j, i) + b(j)\n"
      "  enddo\n"
      "enddo\n",
      // ... whose index array the nest itself writes.
      "arrays b\n"
      "do i = 1, n\n"
      "  do j = 1, n\n"
      "    b(j) = b(j) + i\n"
      "    a(b(i) + j, i) = a(b(i) + j, b(j)) + 1\n"
      "  enddo\n"
      "enddo\n",
      // An array read in a bound, written by the body.
      "arrays c\n"
      "do i = 1, n\n"
      "  do j = 1, c(i) + 3\n"
      "    a(i, j) = a(i, j) + 1\n"
      "    c(i + 1) = j\n"
      "  enddo\n"
      "enddo\n",
  };
  for (const char *Src : Nests) {
    LoopNest Nest = parse(Src);
    sweep(Nest, smallOptions(Nest), R, 3, "value-dependent nest", T);
  }
  EXPECT_GT(T.Measured, 20u) << "of " << T.Cases;
}

TEST(CostModelStream, NonAffineSubscriptsAndBoundsMatchInterpreter) {
  fuzz::Rng R(5);
  Tally T;
  LoopNest Nest = parse("do i = 1, n\n"
                        "  do j = max(1, i - 2), min(n, i + 2)\n"
                        "    a(mod(i + j, 5) + 1, j / 2, i * j) = "
                        "a(i, j, abs(i - 4)) + sgn(j - 3) + sqrt(i)\n"
                        "  enddo\n"
                        "enddo\n");
  sweep(Nest, smallOptions(Nest), R, 3, "non-affine nest", T);
  EXPECT_GT(T.Measured, 10u) << "of " << T.Cases;
}

TEST(CostModelStream, LayoutTooLargeToHoldDenselyMatchesInterpreter) {
  // Millions of elements between the extremes of one subscript: values
  // are then kept by subscript rather than in a dense buffer.
  fuzz::Rng R(3);
  Tally T;
  LoopNest Nest = parse("do i = 1, n\n"
                        "  do j = 1, n\n"
                        "    a(i * 1000000, j) = a(i * 1000000 - 1, j) + i\n"
                        "  enddo\n"
                        "enddo\n");
  sweep(Nest, smallOptions(Nest), R, 2, "sparse nest", T);
  EXPECT_GT(T.Measured, 5u) << "of " << T.Cases;
}

TEST(CostModelStream, StaleAndFallbackBindingsMatchInterpreter) {
  // Hand-built nests can read a variable where the interpreter has no
  // fresh binding for it: an init reading a later init sees the previous
  // instance's value (a parameter of that name before the first one), and
  // a bound reading an init variable sees the last instance's value.
  CostModelOptions O;
  O.Params = {{"n", 6}, {"y", 3}, {"x", 2}};
  LoopNest Stale = parse("do i = 1, n\n"
                         "  do j = 1, n\n"
                         "    a(i, j) = a(i, j) + 1\n"
                         "  enddo\n"
                         "enddo\n");
  Stale.Inits = {InitStmt{"x", Expr::add(Expr::var("y"), Expr::intConst(1))},
                 InitStmt{"y", Expr::var("j")}};
  Stale.Body[0].LHS.Subscripts[1] = Expr::var("x");
  Stale.Loops[1].Upper = Expr::add(Expr::var("x"), Expr::intConst(2));
  EXPECT_TRUE(expectSame(Stale, TransformSequence(), O, "stale bindings")
                  .has_value());
}

TEST(CostModelStream, EdgeOutcomes) {
  TransformSequence Id;
  auto run = [&](const char *Src, CostModelOptions O, const char *What) {
    return expectSame(parse(Src), Id, O, What);
  };
  auto opts = [&](const char *Src) { return smallOptions(parse(Src)); };

  const char *ZeroTrip = "do i = 5, 1\n"
                         "  do j = 1, n\n"
                         "    a(i, j) = a(i, j) + 1\n"
                         "  enddo\n"
                         "enddo\n";
  EXPECT_EQ(run(ZeroTrip, opts(ZeroTrip), "zero trip"), 0.0);

  const char *Arity = "do i = 1, n\n"
                      "  a(i) = a(i, 1) + 1\n"
                      "enddo\n";
  EXPECT_EQ(run(Arity, opts(Arity), "arity"), std::nullopt);

  // Arity only matters for accesses that run.
  const char *DeadArity = "do i = 1, n\n"
                          "  do j = 3, 1\n"
                          "    a(i) = a(i, 1) + 1\n"
                          "  enddo\n"
                          "enddo\n";
  EXPECT_EQ(run(DeadArity, opts(DeadArity), "dead arity"), 0.0);

  const char *DivZero = "arrays b, c\n"
                        "do i = 1, n\n"
                        "  do j = 1, n\n"
                        "    a(i, j) = b(i, j) / c(j, i)\n"
                        "  enddo\n"
                        "enddo\n";
  EXPECT_EQ(run(DivZero, opts(DivZero), "division by zero"), std::nullopt);

  const char *ModZero = "do i = 1, n\n"
                        "  a(mod(i, i - 3)) = 1\n"
                        "enddo\n";
  EXPECT_EQ(run(ModZero, opts(ModZero), "modulus by zero"), std::nullopt);

  const char *SqrtNeg = "arrays b\n"
                        "do i = 1, n\n"
                        "  a(i) = sqrt(b(i) - 1)\n"
                        "enddo\n";
  EXPECT_EQ(run(SqrtNeg, opts(SqrtNeg), "sqrt of negative"), std::nullopt);

  const char *ValueOverflow = "do i = 2, n\n"
                              "  a(i) = a(i - 1) * 1000000 + 1000000\n"
                              "enddo\n";
  EXPECT_EQ(run(ValueOverflow, opts(ValueOverflow), "value overflow"),
            std::nullopt);

  const char *SubOverflow = "do i = 1, n\n"
                            "  a(i) = 5 - (-9223372036854775807 - i)\n"
                            "enddo\n";
  EXPECT_EQ(run(SubOverflow, opts(SubOverflow), "subtraction overflow"),
            std::nullopt);

  // Subscripts spanning the whole int64 range, read and written: the
  // array's size wraps to zero elements and must not pass for a small
  // dense buffer.
  const char *FullRangeRead =
      "arrays B\n"
      "do i = 1, n\n"
      "  a(i) = B(-9223372036854775807 - 1) + B(9223372036854775807)\n"
      "enddo\n";
  EXPECT_TRUE(run(FullRangeRead, opts(FullRangeRead), "full-range read")
                  .has_value());
  const char *FullRangeWrite =
      "do i = 1, n\n"
      "  a(sgn(i - 2) * 9223372036854775807 + min(0, i - 2)) = 1\n"
      "enddo\n";
  EXPECT_TRUE(run(FullRangeWrite, opts(FullRangeWrite), "full-range write")
                  .has_value());

  // Budgets: instances, and loop headers of a nest that never reaches its
  // body.
  CostModelOptions Small = opts(PaperNests[0]);
  Small.MaxInstances = 100;
  EXPECT_EQ(run(PaperNests[0], Small, "instance budget"), std::nullopt);
  const char *NoBody = "do i = 1, n\n"
                       "  do j = 3, 1\n"
                       "    a(i, j) = 1\n"
                       "  enddo\n"
                       "enddo\n";
  CostModelOptions Headers = opts(NoBody);
  Headers.MaxInstances = 7;
  EXPECT_EQ(run(NoBody, Headers, "header budget"), std::nullopt);
  Headers.MaxInstances = 8;
  EXPECT_EQ(run(NoBody, Headers, "header budget met"), 0.0);
}

// Affine nests sweep each innermost activation: running addresses, flat
// statement programs, budgets checked once per activation. The cases
// below aim at that path's edges.

TEST(CostModelStream, SweptActivationEdgesMatchInterpreter) {
  const char *Nests[] = {
      // A reversed innermost loop, and steps of magnitude above 1.
      "do i = 1, n\n"
      "  do j = n, 1, -1\n"
      "    a(i, j) = a(i, j + 1) + 1\n"
      "  enddo\n"
      "enddo\n",
      "do i = 1, n\n"
      "  do j = 2, n, 3\n"
      "    a(i, j) = a(i - 1, j) + a(i, j - 3)\n"
      "  enddo\n"
      "enddo\n",
      "do i = 1, n\n"
      "  do j = n, 1, -2\n"
      "    a(j, i) = a(j + 2, i) + 1\n"
      "  enddo\n"
      "enddo\n",
      // Activations of 4, 3, 2 and 1 trips, then empty ones.
      "do i = 1, n\n"
      "  do j = i, 4\n"
      "    a(i, j) = a(i, j - 1) + 1\n"
      "  enddo\n"
      "enddo\n",
      // Right-hand sides that read the innermost index, or (once skewed)
      // an init.
      "do i = 1, n\n"
      "  a(i) = i\n"
      "enddo\n",
      "do i = 1, n\n"
      "  do j = 1, n\n"
      "    a(i, j) = a(i, j - 1) + j * i\n"
      "    b(j) = a(i, j) - i\n"
      "  enddo\n"
      "enddo\n",
  };
  // Inits under Block and Interleave (skewed first), reversal and
  // strip-mining.
  const char *Scripts[] = {"",
                           "skew 2 1 1\nblock 1 2 4 4",
                           "unimodular 1 1 / 0 1\ninterleave 1 2 2 2",
                           "reverse 1",
                           "stripmine 2 3",
                           "interchange 1 2"};
  Tally T;
  for (const char *Src : Nests) {
    LoopNest Nest = parse(Src);
    CostModelOptions O = smallOptions(Nest);
    for (const char *Script : Scripts) {
      ErrorOr<TransformSequence> Seq =
          parseTransformScript(Script, Nest.numLoops());
      if (Seq)
        expectSame(Nest, *Seq, O, Script, &T);
    }
  }
  EXPECT_GT(T.Measured, 20u) << "of " << T.Cases;

  // One non-default geometry: 16 sets of three 48-byte lines.
  LoopNest Matmul = parse(PaperNests[0]);
  CostModelOptions Odd = smallOptions(Matmul, 12);
  Odd.Cache = CacheConfig{16 * 3 * 48, 48, 3};
  for (const char *Script :
       {"", "interchange 2 3", "block 1 2 4 4", "stripmine 3 4",
        "skew 3 1 1\nblock 2 3 2 2"}) {
    ErrorOr<TransformSequence> Seq = parseTransformScript(Script, 3);
    ASSERT_TRUE(static_cast<bool>(Seq)) << Seq.message();
    EXPECT_TRUE(expectSame(Matmul, *Seq, Odd, Script).has_value()) << Script;
  }
}

TEST(CostModelStream, InitAssigningALoopIndexMatchesInterpreter) {
  // Hand-built (no template emits one): an init that assigns a loop index
  // leaves its value for the next instance to read, which no closed form
  // over an activation follows, so the nest takes the per-iteration path.
  CostModelOptions O;
  O.Params = {{"n", 24}};
  LoopNest Nest = parse("do i = 1, n\n"
                        "  do j = 1, n\n"
                        "    a(i, j) = a(i, j) + 1\n"
                        "  enddo\n"
                        "enddo\n");
  Nest.Inits = {InitStmt{"i", Expr::add(Expr::var("i"), Expr::var("j"))}};
  EXPECT_TRUE(expectSame(Nest, TransformSequence(), O, "init assigns i")
                  .has_value());
  Nest.Inits = {InitStmt{"j", Expr::add(Expr::var("j"), Expr::intConst(2))}};
  EXPECT_TRUE(expectSame(Nest, TransformSequence(), O, "init assigns j")
                  .has_value());
}

TEST(CostModelStream, SweptOutcomesMatchInterpreter) {
  TransformSequence Id;
  auto run = [&](const char *Src, const CostModelOptions &O,
                 const char *What) {
    return expectSame(parse(Src), Id, O, What);
  };
  auto opts = [&](const char *Src) { return smallOptions(parse(Src)); };

  // Every operation inside a swept statement.
  const char *Ops = "do i = 1, n\n"
                    "  do j = 1, n\n"
                    "    a(i, j) = min(a(i, j - 1), j) + max(i, 3) + "
                    "a(i, j) / (j + 1) + mod(a(i, j - 1) + j, 3) + sqrt(j) + "
                    "abs(i - j) + sgn(j - 4)\n"
                    "  enddo\n"
                    "enddo\n";
  EXPECT_TRUE(run(Ops, opts(Ops), "every op").has_value());

  // Faults partway through an activation.
  const char *Partway[] = {
      // A value that overflows at j = 7.
      "do i = 1, n\n"
      "  do j = 1, n\n"
      "    a(i, j) = a(i, j - 1) * 1000 + 1000\n"
      "  enddo\n"
      "enddo\n",
      // Division and modulus by zero at j = 4.
      "do i = 1, n\n"
      "  do j = 1, n\n"
      "    a(i, j) = a(i, j) + 10 / (j - 4)\n"
      "  enddo\n"
      "enddo\n",
      "do i = 1, n\n"
      "  do j = 1, n\n"
      "    a(i, j) = mod(a(i, j) + 7, j - 4)\n"
      "  enddo\n"
      "enddo\n",
      // The square root of a negative value from j = 6.
      "do i = 1, n\n"
      "  do j = 1, n\n"
      "    a(i, j) = sqrt(5 - j)\n"
      "  enddo\n"
      "enddo\n",
      // abs of INT64_MIN, reached at j = 3.
      "do i = 1, n\n"
      "  do j = 1, n\n"
      "    a(i, j) = abs(min(j - 3, 0) * 9223372036854775807 + "
      "min(j - 3, 0) * 2)\n"
      "  enddo\n"
      "enddo\n",
  };
  for (const char *Src : Partway)
    EXPECT_EQ(run(Src, opts(Src), "fault partway"), std::nullopt) << Src;

  // An unbound variable faults where it runs.
  const char *Unbound = "do i = 1, n\n"
                        "  do j = i, 3\n"
                        "    a(i, j) = a(i, j) + q\n"
                        "  enddo\n"
                        "enddo\n";
  CostModelOptions NoQ;
  NoQ.Params = {{"n", 8}};
  EXPECT_EQ(run(Unbound, NoQ, "unbound"), std::nullopt);
  NoQ.Params = {{"n", 0}};
  EXPECT_EQ(run(Unbound, NoQ, "unbound but never run"), 0.0);

  // The budget: 8 outer and 64 inner headers run out exactly at the last
  // instance, or one short of it.
  const char *Square = "do i = 1, n\n"
                       "  do j = 1, n\n"
                       "    a(i, j) = a(i, j - 1) + 1\n"
                       "  enddo\n"
                       "enddo\n";
  CostModelOptions Budget = opts(Square);
  Budget.MaxInstances = 72;
  EXPECT_TRUE(
      run(Square, Budget, "budget met at the last instance").has_value());
  Budget.MaxInstances = 71;
  EXPECT_EQ(run(Square, Budget, "budget one short"), std::nullopt);

  // An innermost index next to INT64_MAX: the last increment still fits.
  const char *NearMax = "do i = 1, n\n"
                        "  do j = 9223372036854775800, 9223372036854775806\n"
                        "    a(i, j - 9223372036854775800) = "
                        "a(i, j - 9223372036854775801) + 1\n"
                        "  enddo\n"
                        "enddo\n";
  EXPECT_TRUE(
      run(NearMax, opts(NearMax), "index next to INT64_MAX").has_value());
  // Here it would wrap: the stream falls back to the per-iteration loop,
  // which wraps like the interpreter and runs into the budget.
  const char *Wraps = "do i = 1, n\n"
                      "  do j = 9223372036854775806, 9223372036854775807\n"
                      "    a(i) = a(i) + 1\n"
                      "  enddo\n"
                      "enddo\n";
  CostModelOptions Small = opts(Wraps);
  Small.MaxInstances = 1'000;
  EXPECT_EQ(run(Wraps, Small, "index wraps past INT64_MAX"), std::nullopt);
}
