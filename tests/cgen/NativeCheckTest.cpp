//===- tests/cgen/NativeCheckTest.cpp - checkNative classification --------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-call native differential check the validator, fuzzer, and
/// tools share: legal transformations come back Match with the
/// interpreter agreeing cell-for-cell; illegal ones come back Mismatch;
/// uncheckable cases (unbound parameter, cell cap) come back Skipped
/// with a deterministic Detail; a missing compiler is Unavailable.
///
//===----------------------------------------------------------------------===//

#include "cgen/NativeCheck.h"
#include "driver/Script.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

const std::string &hostCompiler() {
  static const std::string CC = cgen::probeCompiler();
  return CC;
}

LoopNest parse(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return N.take();
}

LoopNest apply(const LoopNest &Nest, const std::string &Script) {
  ErrorOr<TransformSequence> Seq =
      parseTransformScript(Script, Nest.numLoops());
  EXPECT_TRUE(static_cast<bool>(Seq)) << Seq.message();
  ErrorOr<LoopNest> Out = applySequence(*Seq, Nest);
  EXPECT_TRUE(static_cast<bool>(Out)) << Out.message();
  return Out.take();
}

cgen::NativeCheckOptions smallOptions() {
  cgen::NativeCheckOptions NC;
  NC.Bindings = {{{"n", 8}, {"m", 6}}};
  NC.UseOpenMP = false;
  NC.Runner.Compiler = hostCompiler();
  NC.Runner.OpenMP = false;
  NC.CrossCheckInterpreter = true;
  return NC;
}

TEST(NativeCheck, LegalInterchangeMatches) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  LoopNest N = parse("arrays b\ndo i = 1, n\n  do j = 1, m\n"
                     "    a(i, j) = a(i, j) + b(j)\n  enddo\nenddo\n");
  LoopNest T = apply(N, "interchange 1 2");
  cgen::NativeCheckResult R =
      cgen::checkNative(N, &T, smallOptions()).front();
  EXPECT_EQ(R.Status, cgen::NativeCheckStatus::Match)
      << cgen::nativeCheckStatusName(R.Status) << ": " << R.Detail;
  // The cross-checked interpreter agreed with both native checksums.
  EXPECT_TRUE(R.Interp.Ok) << R.Interp.Detail;
  EXPECT_EQ(R.Interp.Original, R.Native.ChecksumOriginal);
}

TEST(NativeCheck, IllegalReversalMismatches) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  // a(i1) = a(i1 - 1) + 1 carries a (1) dependence; reversing the loop
  // computes a different fixpoint, which the harness must catch.
  LoopNest N = parse("do i = 2, n\n  a(i) = a(i - 1) + 1\nenddo\n");
  LoopNest T = apply(N, "reverse 1");
  cgen::NativeCheckResult R =
      cgen::checkNative(N, &T, smallOptions()).front();
  EXPECT_EQ(R.Status, cgen::NativeCheckStatus::Mismatch)
      << cgen::nativeCheckStatusName(R.Status) << ": " << R.Detail;
  EXPECT_NE(R.Detail.find("native mismatch"), std::string::npos) << R.Detail;
}

TEST(NativeCheck, UnboundParameterIsSkipped) {
  LoopNest N = parse("do i = 1, n\n  a(i) = a(i) + 1\nenddo\n");
  cgen::NativeCheckOptions NC = smallOptions();
  NC.Bindings = {{{"m", 6}}}; // n is free but unbound
  cgen::NativeCheckResult R = cgen::checkNative(N, &N, NC).front();
  EXPECT_EQ(R.Status, cgen::NativeCheckStatus::Skipped)
      << cgen::nativeCheckStatusName(R.Status) << ": " << R.Detail;
}

TEST(NativeCheck, CellCapIsSkippedDeterministically) {
  LoopNest N = parse("do i = 1, n\n  do j = 1, n\n"
                     "    a(i, j) = a(i, j) + 1\n  enddo\nenddo\n");
  cgen::NativeCheckOptions NC = smallOptions();
  NC.Bindings = {{{"n", 4096}}};
  NC.MaxCells = 1u << 10; // 4096 x 4096 cells blow a 1K cap
  cgen::NativeCheckResult R = cgen::checkNative(N, &N, NC).front();
  EXPECT_EQ(R.Status, cgen::NativeCheckStatus::Skipped)
      << cgen::nativeCheckStatusName(R.Status) << ": " << R.Detail;
}

TEST(NativeCheck, MissingCompilerIsUnavailable) {
  LoopNest N = parse("do i = 1, n\n  a(i) = a(i) + 1\nenddo\n");
  cgen::NativeCheckOptions NC = smallOptions();
  NC.Runner.Compiler = "/nonexistent/irlt-no-such-cc";
  cgen::NativeCheckResult R = cgen::checkNative(N, &N, NC).front();
  EXPECT_EQ(R.Status, cgen::NativeCheckStatus::Unavailable)
      << cgen::nativeCheckStatusName(R.Status) << ": " << R.Detail;
  EXPECT_EQ(R.Detail, "no host C compiler");
}

} // namespace
