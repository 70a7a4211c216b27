//===- tests/cgen/NativeRunnerTest.cpp - Compile-and-run failure matrix ---===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NativeRunner contract: every way a compile-and-run can fail -
/// missing compiler, compile error, runtime timeout, harness mismatch,
/// unparseable output - comes back as a structured NativeStatus, never a
/// crash, hang, or stray temp file. Tests that need a real host compiler
/// GTEST_SKIP when the probe finds none (the CI cgen lane runs them).
///
//===----------------------------------------------------------------------===//

#include "cgen/Cgen.h"
#include "cgen/NativeRunner.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <chrono>

using namespace irlt;

namespace {

/// Probed once; tests that drive a real compiler skip when empty.
const std::string &hostCompiler() {
  static const std::string CC = cgen::probeCompiler();
  return CC;
}

LoopNest parse(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return N.take();
}

/// Emits a differential program over (Original, Transformed) with the
/// default small bindings.
std::string emitPair(const LoopNest &Original, const LoopNest &Transformed) {
  cgen::ProgramOptions PO;
  PO.Bindings = {{"n", 8}, {"m", 6}};
  PO.UseOpenMP = false;
  ErrorOr<std::vector<cgen::ArrayShape>> Shapes =
      cgen::arrayShapes(Original, PO.Bindings, 1u << 20);
  EXPECT_TRUE(static_cast<bool>(Shapes)) << Shapes.message();
  ErrorOr<std::string> Program =
      cgen::emitProgram(Original, &Transformed, *Shapes, PO);
  EXPECT_TRUE(static_cast<bool>(Program)) << Program.message();
  return *Program;
}

TEST(NativeRunner, MissingCompilerIsAStatusNotACrash) {
  LoopNest N = parse("do i = 1, n\n  a(i) = a(i) + 1\nenddo\n");
  cgen::NativeRunOptions Opts;
  Opts.Compiler = "/nonexistent/irlt-no-such-cc";
  cgen::NativeResult R = cgen::runNative(emitPair(N, N), Opts);
  EXPECT_EQ(R.Status, cgen::NativeStatus::NoCompiler)
      << cgen::nativeStatusName(R.Status) << ": " << R.Detail;
}

TEST(NativeRunner, MatchingPairRunsClean) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  LoopNest N = parse("arrays b\ndo i = 1, n\n  do j = 1, m\n"
                     "    a(i, j) = a(i, j) + b(j)\n  enddo\nenddo\n");
  cgen::NativeRunOptions Opts;
  Opts.Compiler = hostCompiler();
  Opts.OpenMP = false;
  cgen::NativeResult R = cgen::runNative(emitPair(N, N), Opts);
  EXPECT_EQ(R.Status, cgen::NativeStatus::Ok)
      << cgen::nativeStatusName(R.Status) << ": " << R.Detail;
  EXPECT_TRUE(R.Match);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.ChecksumOriginal, R.ChecksumTransformed);
  EXPECT_EQ(R.OobOriginal, 0u);
  EXPECT_EQ(R.OobTransformed, 0u);
}

TEST(NativeRunner, DivergentPairReportsMismatch) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  // The "transformed" side computes something else entirely; the harness
  // must report a checksum mismatch and exit 7, not crash.
  LoopNest Orig = parse("do i = 1, n\n  a(i) = a(i) + 1\nenddo\n");
  LoopNest Wrong = parse("do i = 1, n\n  a(i) = a(i) + 2\nenddo\n");
  cgen::NativeRunOptions Opts;
  Opts.Compiler = hostCompiler();
  Opts.OpenMP = false;
  cgen::NativeResult R = cgen::runNative(emitPair(Orig, Wrong), Opts);
  EXPECT_EQ(R.Status, cgen::NativeStatus::Mismatch)
      << cgen::nativeStatusName(R.Status) << ": " << R.Detail;
  EXPECT_FALSE(R.Match);
  EXPECT_EQ(R.ExitCode, 7);
  EXPECT_NE(R.ChecksumOriginal, R.ChecksumTransformed);
}

TEST(NativeRunner, CompileErrorIsAStatus) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  cgen::NativeRunOptions Opts;
  Opts.Compiler = hostCompiler();
  cgen::NativeResult R =
      cgen::runNative("int main(void) { this is not C;\n", Opts);
  EXPECT_EQ(R.Status, cgen::NativeStatus::CompileError)
      << cgen::nativeStatusName(R.Status) << ": " << R.Detail;
  EXPECT_FALSE(R.Detail.empty());
}

TEST(NativeRunner, RunTimeoutKillsTheProcessGroup) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  cgen::NativeRunOptions Opts;
  Opts.Compiler = hostCompiler();
  Opts.OpenMP = false;
  Opts.RunTimeoutMs = 300;
  cgen::NativeResult R =
      cgen::runNative("int main(void) { for (;;) { } return 0; }\n", Opts);
  EXPECT_EQ(R.Status, cgen::NativeStatus::RunTimeout)
      << cgen::nativeStatusName(R.Status) << ": " << R.Detail;
}

TEST(NativeRunner, SilentBinaryIsBadOutput) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  cgen::NativeRunOptions Opts;
  Opts.Compiler = hostCompiler();
  Opts.OpenMP = false;
  cgen::NativeResult R =
      cgen::runNative("int main(void) { return 0; }\n", Opts);
  EXPECT_EQ(R.Status, cgen::NativeStatus::BadOutput)
      << cgen::nativeStatusName(R.Status) << ": " << R.Detail;
}

/// A two-section program whose first section reports a match and whose
/// second does \p Then.
std::string afterOneMatch(const std::string &Then) {
  return "#include <signal.h>\n#include <stdio.h>\n"
         "int main(void) {\n"
         "  puts(\"IRLT_RESULT {\\\"match\\\":true}\");\n"
         "  fflush(stdout);\n  " +
         Then + "\n}\n";
}

cgen::NativeResult runTwoSections(const std::string &Program,
                                  uint64_t RunTimeoutMs = 60000) {
  cgen::NativeRunOptions Opts;
  Opts.Compiler = hostCompiler();
  Opts.OpenMP = false;
  Opts.Sections = 2;
  Opts.RunTimeoutMs = RunTimeoutMs;
  return cgen::runNative(Program, Opts);
}

TEST(NativeRunner, LaterSectionCrashKeepsTheEarlierVerdict) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  cgen::NativeResult R = runTwoSections(afterOneMatch("raise(SIGSEGV);"));
  ASSERT_EQ(R.Sections.size(), 2u);
  EXPECT_EQ(R.Sections[0].Status, cgen::NativeStatus::Ok);
  EXPECT_EQ(R.Sections[1].Status, cgen::NativeStatus::RunError)
      << R.Sections[1].Detail;
  // The result's own fields are the first section's.
  EXPECT_EQ(R.Status, cgen::NativeStatus::Ok);
  EXPECT_TRUE(R.Match);
}

TEST(NativeRunner, LaterSectionTimeoutKeepsTheEarlierVerdict) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  cgen::NativeResult R =
      runTwoSections(afterOneMatch("for (;;) { }"), /*RunTimeoutMs=*/150);
  ASSERT_EQ(R.Sections.size(), 2u);
  EXPECT_EQ(R.Sections[0].Status, cgen::NativeStatus::Ok);
  EXPECT_EQ(R.Sections[1].Status, cgen::NativeStatus::RunTimeout)
      << R.Sections[1].Detail;
}

TEST(NativeRunner, MismatchEndsTheSections) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  cgen::NativeResult R = runTwoSections(
      "#include <stdio.h>\nint main(void) {\n"
      "  puts(\"IRLT_RESULT {\\\"match\\\":false}\");\n  return 7;\n}\n");
  ASSERT_EQ(R.Sections.size(), 1u);
  EXPECT_EQ(R.Sections[0].Status, cgen::NativeStatus::Mismatch);
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(NativeRunner, MissingSectionLineIsBadOutput) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  cgen::NativeResult R = runTwoSections(afterOneMatch("return 0;"));
  ASSERT_EQ(R.Sections.size(), 2u);
  EXPECT_EQ(R.Sections[0].Status, cgen::NativeStatus::Ok);
  EXPECT_EQ(R.Sections[1].Status, cgen::NativeStatus::BadOutput)
      << R.Sections[1].Detail;
}

TEST(NativeRunner, DeadlineKillsTheRunNoEarlierThanTheDeadline) {
  if (hostCompiler().empty())
    GTEST_SKIP() << "no host C compiler";
  // The caller reads "the deadline has passed" as "cut short": a kill
  // for the deadline must not come before it.
  cgen::NativeRunOptions Opts;
  Opts.Compiler = hostCompiler();
  Opts.OpenMP = false;
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  Opts.Deadline = Deadline;
  cgen::NativeResult R =
      cgen::runNative("int main(void) { for (;;) { } return 0; }\n", Opts);
  EXPECT_EQ(R.Status, cgen::NativeStatus::RunTimeout)
      << cgen::nativeStatusName(R.Status) << ": " << R.Detail;
  EXPECT_GE(std::chrono::steady_clock::now(), Deadline);
}

TEST(NativeRunner, StatusNamesAreStable) {
  EXPECT_STREQ(cgen::nativeStatusName(cgen::NativeStatus::Ok), "ok");
  EXPECT_STREQ(cgen::nativeStatusName(cgen::NativeStatus::Mismatch),
               "mismatch");
  EXPECT_STREQ(cgen::nativeStatusName(cgen::NativeStatus::NoCompiler),
               "no-compiler");
  EXPECT_STREQ(cgen::nativeStatusName(cgen::NativeStatus::CompileError),
               "compile-error");
  EXPECT_STREQ(cgen::nativeStatusName(cgen::NativeStatus::RunTimeout),
               "run-timeout");
  EXPECT_STREQ(cgen::nativeStatusName(cgen::NativeStatus::RunError),
               "run-error");
  EXPECT_STREQ(cgen::nativeStatusName(cgen::NativeStatus::BadOutput),
               "bad-output");
}

} // namespace
