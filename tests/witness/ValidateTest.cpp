//===- tests/witness/ValidateTest.cpp - Guarded validation ladder ---------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The --validate layer (witness/Validate.h): candidate verdicts
/// (Confirmed / Disproved / Inconclusive), disproof reproducer dumps,
/// and the graceful-degradation ladder. The injected-unsound-candidate
/// tests are the ISSUE acceptance criterion: a candidate the legality
/// test would bless but concrete execution disproves must fall through
/// to the next-best candidate, and to the identity when nothing is
/// left - without a crash.
///
//===----------------------------------------------------------------------===//

#include "witness/Validate.h"

#include "cgen/NativeRunner.h"
#include "dependence/DepAnalysis.h"
#include "ir/Parser.h"
#include "transform/Templates.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

#include <unistd.h>

using namespace irlt;
using namespace irlt::witness;

namespace {

LoopNest parse(const std::string &Src) {
  ErrorOr<LoopNest> Nest = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(Nest)) << Nest.message();
  return Nest.take();
}

// Dependences {(0, 1), (1, 0)}: interchange is sound, reversing either
// loop is the canonical unsound-but-applicable candidate.
LoopNest stencil() {
  return parse("do i = 1, n\n"
               "  do j = 1, n\n"
               "    a(i, j) = a(i - 1, j) + a(i, j - 1)\n"
               "  enddo\n"
               "enddo\n");
}

TransformSequence soundCandidate() {
  return TransformSequence::of({makeInterchange(2, 0, 1)});
}

TransformSequence unsoundCandidate() {
  return TransformSequence::of(
      {makeReversePermute(2, {true, false}, {0, 1})});
}

ValidateOptions quietOptions() {
  ValidateOptions O = ValidateOptions::defaults();
  O.ReproDir.clear(); // tests that want dumps opt in explicitly
  return O;
}

TEST(Validate, SoundCandidateIsConfirmed) {
  LoopNest Nest = stencil();
  CandidateOutcome O =
      validateCandidate(Nest, soundCandidate(), quietOptions());
  EXPECT_EQ(O.Status, ValidateStatus::Confirmed) << O.Detail;
  EXPECT_NE(O.Detail.find("2 binding(s)"), std::string::npos) << O.Detail;
  EXPECT_TRUE(O.ReproPath.empty());
}

TEST(Validate, UnsoundCandidateIsDisprovedWithReproducer) {
  LoopNest Nest = stencil();
  ValidateOptions Opts = ValidateOptions::defaults();
  Opts.ReproDir = ::testing::TempDir() + "/irlt-validate-repro-test";

  CandidateOutcome O = validateCandidate(Nest, unsoundCandidate(), Opts);
  ASSERT_EQ(O.Status, ValidateStatus::Disproved) << O.Detail;
  EXPECT_NE(O.Detail.find("binding"), std::string::npos) << O.Detail;
  EXPECT_FALSE(O.Why.Message.empty());

  // The disproof is dumped as a replayable trio; the nest file must
  // round-trip through the parser.
  ASSERT_FALSE(O.ReproPath.empty());
  std::ifstream In(O.ReproPath);
  ASSERT_TRUE(In.good()) << "missing reproducer " << O.ReproPath;
  std::string Src((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  ErrorOr<LoopNest> Dumped = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(Dumped)) << Dumped.message();

  std::string Base = O.ReproPath.substr(0, O.ReproPath.rfind('.'));
  EXPECT_TRUE(std::ifstream(Base + ".script").good());
  EXPECT_TRUE(std::ifstream(Base + ".txt").good());
}

TEST(Validate, TinyBudgetIsInconclusiveNotDisproved) {
  LoopNest Nest = stencil();
  ValidateOptions Opts = quietOptions();
  Opts.MaxInstances = 1; // no binding can finish
  CandidateOutcome O = validateCandidate(Nest, soundCandidate(), Opts);
  EXPECT_EQ(O.Status, ValidateStatus::Inconclusive) << O.Detail;
  EXPECT_NE(O.Detail.find("budget"), std::string::npos) << O.Detail;
}

TEST(Validate, NoBindingsIsInconclusive) {
  LoopNest Nest = stencil();
  ValidateOptions Opts = quietOptions();
  Opts.Bindings.clear();
  CandidateOutcome O = validateCandidate(Nest, soundCandidate(), Opts);
  EXPECT_EQ(O.Status, ValidateStatus::Inconclusive) << O.Detail;
}

//===--- The degradation ladder ---------------------------------------------=

TEST(Validate, LadderFallsThroughUnsoundCandidateToNextBest) {
  // The ISSUE acceptance scenario: an unsound candidate injected ahead
  // of a sound one must be disproved and skipped, not chosen.
  LoopNest Nest = stencil();
  LadderResult R = validateLadder(
      Nest, {unsoundCandidate(), soundCandidate()}, quietOptions());
  EXPECT_EQ(R.Chosen, 1);
  EXPECT_FALSE(R.fellBackToIdentity());
  ASSERT_EQ(R.Outcomes.size(), 2u);
  EXPECT_EQ(R.Outcomes[0].Status, ValidateStatus::Disproved)
      << R.Outcomes[0].Detail;
  EXPECT_EQ(R.Outcomes[1].Status, ValidateStatus::Confirmed)
      << R.Outcomes[1].Detail;
}

TEST(Validate, LadderFallsBackToIdentityWhenAllDisproved) {
  LoopNest Nest = stencil();
  TransformSequence OtherUnsound =
      TransformSequence::of({makeParallelize(2, {true, false})});
  LadderResult R = validateLadder(
      Nest, {unsoundCandidate(), OtherUnsound}, quietOptions());
  EXPECT_EQ(R.Chosen, -1);
  EXPECT_TRUE(R.fellBackToIdentity());
  ASSERT_EQ(R.Outcomes.size(), 2u);
  EXPECT_EQ(R.Outcomes[0].Status, ValidateStatus::Disproved);
  EXPECT_EQ(R.Outcomes[1].Status, ValidateStatus::Disproved);
}

TEST(Validate, LadderStopsAtFirstConfirmedCandidate) {
  LoopNest Nest = stencil();
  LadderResult R = validateLadder(
      Nest, {soundCandidate(), unsoundCandidate()}, quietOptions());
  EXPECT_EQ(R.Chosen, 0);
  // The walk stops at the confirmation: the unsound candidate is never
  // examined.
  EXPECT_EQ(R.Outcomes.size(), 1u);
}

TEST(Validate, LadderPrefersInconclusiveOverIdentity) {
  // A candidate that cannot be disproved within budget outranks giving
  // up entirely; it was, after all, accepted by the legality test.
  LoopNest Nest = stencil();
  ValidateOptions Opts = quietOptions();
  Opts.MaxInstances = 1;
  LadderResult R = validateLadder(Nest, {soundCandidate()}, Opts);
  EXPECT_EQ(R.Chosen, 0);
  ASSERT_EQ(R.Outcomes.size(), 1u);
  EXPECT_EQ(R.Outcomes[0].Status, ValidateStatus::Inconclusive);
}

TEST(Validate, EmptyLadderFallsBackToIdentity) {
  LoopNest Nest = stencil();
  LadderResult R = validateLadder(Nest, {}, quietOptions());
  EXPECT_TRUE(R.fellBackToIdentity());
  EXPECT_TRUE(R.Outcomes.empty());
}

TEST(Validate, StatusNamesAreStable) {
  EXPECT_STREQ(validateStatusName(ValidateStatus::Confirmed), "confirmed");
  EXPECT_STREQ(validateStatusName(ValidateStatus::Disproved), "disproved");
  EXPECT_STREQ(validateStatusName(ValidateStatus::Inconclusive),
               "inconclusive");
}

//===--- The native tier ----------------------------------------------------=
//
// These pin the verdict and detail string of every way the native tier
// (docs/CODEGEN.md) can end a candidate. Tests that compile skip loudly
// when no host C compiler answers, as NativeRunnerTest does.

bool haveCompiler() {
  static const bool Have = !cgen::probeCompiler().empty();
  return Have;
}

ValidateOptions quietNative() {
  ValidateOptions O = ValidateOptions::nativeDefaults();
  O.ReproDir.clear();
  return O;
}

/// Interpreted bindings under which reversing the stencil's outer loop
/// is invisible (one iteration), so the candidate reaches the native
/// tier; \p Native are the native bindings.
ValidateOptions hiddenReversal(std::vector<std::map<std::string, int64_t>>
                                   Native) {
  ValidateOptions O = quietNative();
  O.Bindings = {{{"n", 1}}};
  O.NativeBindings = std::move(Native);
  return O;
}

/// Sets an environment variable for one scope and restores it after.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const std::string &Value) : Name(Name) {
    if (const char *Old = getenv(Name))
      Saved = Old;
    setenv(Name, Value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (Saved)
      setenv(Name, Saved->c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

TEST(ValidateNative, ConfirmedUnderBothBindings) {
  if (!haveCompiler())
    GTEST_SKIP() << "no host C compiler";
  LadderResult R = validateLadder(stencil(), {soundCandidate()},
                                  quietNative());
  EXPECT_EQ(R.Chosen, 0);
  ASSERT_EQ(R.Outcomes.size(), 1u);
  EXPECT_EQ(R.Outcomes[0].Status, ValidateStatus::Confirmed);
  EXPECT_EQ(R.Outcomes[0].Detail,
            "equivalent under 2 binding(s); native-confirmed under 2 "
            "binding(s)");
}

TEST(ValidateNative, MismatchAtTheFirstBinding) {
  if (!haveCompiler())
    GTEST_SKIP() << "no host C compiler";
  CandidateOutcome O =
      validateCandidate(stencil(), unsoundCandidate(),
                        hiddenReversal({{{"n", 8}}, {{"n", 16}}}));
  EXPECT_EQ(O.Status, ValidateStatus::Disproved);
  EXPECT_EQ(O.Detail, "native binding n=8: native mismatch: original "
                      "0xc270a1108db5855c vs transformed 0xcaf5e7f170320ec4");
  EXPECT_EQ(O.Why.Message, O.Detail.substr(O.Detail.find("native mismatch")));
}

TEST(ValidateNative, MismatchFirstSeenAtTheSecondBinding) {
  if (!haveCompiler())
    GTEST_SKIP() << "no host C compiler";
  // Under n=1 the reversal is invisible natively too; n=8 exposes it.
  LadderResult R =
      validateLadder(stencil(), {unsoundCandidate(), soundCandidate()},
                     hiddenReversal({{{"n", 1}}, {{"n", 8}}}));
  EXPECT_EQ(R.Chosen, 1);
  ASSERT_EQ(R.Outcomes.size(), 2u);
  EXPECT_EQ(R.Outcomes[0].Status, ValidateStatus::Disproved);
  EXPECT_EQ(R.Outcomes[0].Detail,
            "native binding n=8: native mismatch: original "
            "0xc270a1108db5855c vs transformed 0xcaf5e7f170320ec4");
  EXPECT_EQ(R.Outcomes[1].Status, ValidateStatus::Confirmed);
  EXPECT_EQ(R.Outcomes[1].Detail,
            "equivalent under 1 binding(s); native-confirmed under 2 "
            "binding(s)");
}

TEST(ValidateNative, CellCapSkipsTheSecondBinding) {
  if (!haveCompiler())
    GTEST_SKIP() << "no host C compiler";
  // The stencil's a is 73 x 73 cells at n=72 and 161 x 161 at n=160.
  ValidateOptions Opts = quietNative();
  Opts.NativeMaxCells = 10000;
  CandidateOutcome O = validateCandidate(stencil(), soundCandidate(), Opts);
  EXPECT_EQ(O.Status, ValidateStatus::Confirmed);
  EXPECT_EQ(O.Detail, "equivalent under 2 binding(s); native tier skipped: "
                      "array a above the cell cap");
}

TEST(ValidateNative, MissingCompilerLeavesTheInterpretedVerdict) {
  ScopedEnv CC("IRLT_CC", "/nonexistent/irlt-no-such-cc");
  CandidateOutcome O =
      validateCandidate(stencil(), soundCandidate(), quietNative());
  EXPECT_EQ(O.Status, ValidateStatus::Confirmed);
  EXPECT_EQ(O.Detail, "equivalent under 2 binding(s); native tier skipped: "
                      "no host C compiler");
}

TEST(ValidateNative, ConfirmsWhatTheInterpretedBudgetCannot) {
  if (!haveCompiler())
    GTEST_SKIP() << "no host C compiler";
  ValidateOptions Opts = quietNative();
  Opts.MaxInstances = 1;
  LadderResult R = validateLadder(stencil(), {soundCandidate()}, Opts);
  EXPECT_EQ(R.Chosen, 0);
  ASSERT_EQ(R.Outcomes.size(), 1u);
  EXPECT_EQ(R.Outcomes[0].Status, ValidateStatus::Confirmed);
  EXPECT_EQ(R.Outcomes[0].Detail,
            "interpreted budget exhausted, but native execution confirmed 2 "
            "binding(s)");
}

TEST(ValidateNative, OneCompilePerCandidate) {
  std::string CC = cgen::probeCompiler();
  if (CC.empty())
    GTEST_SKIP() << "no host C compiler";
  // A compiler wrapper that logs every invocation's arguments.
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) /
      ("irlt-cc-count-" + std::to_string(getpid()));
  std::filesystem::create_directories(Dir);
  std::string Log = (Dir / "argv.log").string();
  std::string Wrapper = (Dir / "cc-wrapper").string();
  {
    std::ofstream W(Wrapper);
    W << "#!/bin/sh\nprintf '%s\\n' \"$*\" >> '" << Log << "'\nexec '" << CC
      << "' \"$@\"\n";
  }
  std::filesystem::permissions(Wrapper, std::filesystem::perms::owner_all);

  LadderResult R;
  {
    ScopedEnv Env("IRLT_CC", Wrapper);
    R = validateLadder(stencil(), {soundCandidate()}, quietNative());
  }
  ASSERT_EQ(R.Outcomes.size(), 1u);
  EXPECT_EQ(R.Outcomes[0].Detail,
            "equivalent under 2 binding(s); native-confirmed under 2 "
            "binding(s)");
  unsigned Compiles = 0, Probes = 0;
  std::ifstream In(Log);
  for (std::string Line; std::getline(In, Line);) {
    Compiles += Line.find(" -o ") != std::string::npos;
    Probes += Line == "--version";
  }
  EXPECT_EQ(Compiles, 1u) << "one program holds both native bindings";
  EXPECT_LE(Probes, 1u) << "the ladder probes the compiler once";
  std::filesystem::remove_all(Dir);
}

} // namespace
