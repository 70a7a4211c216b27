//===- tests/deps/DepsetGoldenTest.cpp - Generated-nest dependence golden -===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the dependence sets of generated nests byte for byte. Each line of
/// tests/data/deps/generated_depsets.golden holds, for one nest, the
/// pipeline backend's DepSet, its overflow flag and the fm-exact backend's
/// DepSet ("=" when it equals the pipeline's). The corpus:
///  - 2,000 nests drawn the way perfbench's cold-script stream draws them
///    (fuzz::generateColdNest, the stream of benchmark seed 0);
///  - 100 3-deep triangular nests, which that stream leaves out;
///  - 200 overflow-mode nests (a 2^62 loop extent).
/// Both backends run on FMSystem, so the golden pins the solver's
/// feasibility and range answers on the inputs the analyzers build, row
/// cap included. Regenerate with IRLT_UPDATE_GOLDEN=1.
///
//===----------------------------------------------------------------------===//

#include "deps/DepOracle.h"

#include "fuzz/NestGen.h"
#include "fuzz/Rng.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace irlt;

namespace {

std::string goldenPath() {
  return std::string(IRLT_DEPS_DATA_DIR) + "/generated_depsets.golden";
}

enum class Draw { Cold, Triangular3, Overflow };

fuzz::NestSpec drawNest(Draw D, uint64_t Seed) {
  fuzz::Rng R(Seed);
  if (D == Draw::Cold)
    return fuzz::generateColdNest(R);
  fuzz::NestGenOptions NO;
  NO.MaxDepth = 3;
  NO.OverflowMode = D == Draw::Overflow;
  fuzz::NestSpec Spec = fuzz::generateNest(R, NO);
  if (D == Draw::Triangular3)
    while (Spec.depth() != 3 || !fuzz::isTriangular(Spec))
      Spec = fuzz::generateNest(R, NO);
  return Spec;
}

struct Section {
  const char *Tag;
  Draw D;
  uint64_t Seed;
  unsigned Count;
};

const Section Sections[] = {{"c", Draw::Cold, fuzz::ColdStreamSeed, 2000},
                            {"t", Draw::Triangular3, 0x7a1, 100},
                            {"o", Draw::Overflow, 0x0f10, 200}};

struct Line {
  std::string Text;
  std::string Source;
};

std::vector<Line> computeLines() {
  std::vector<Line> Out;
  for (const Section &S : Sections) {
    for (unsigned I = 0; I < S.Count; ++I) {
      std::string Src = drawNest(S.D, fuzz::caseSeed(S.Seed, I)).render();
      auto Parsed = parseLoopNest(Src);
      EXPECT_TRUE(Parsed) << Src << Parsed.message();
      if (!Parsed)
        continue;
      LoopNest Nest = Parsed.take();
      deps::DepResult Fast = deps::pipelineOracle().analyze(Nest);
      deps::DepResult Exact = deps::fmExactOracle().analyze(Nest);
      std::string FastStr = Fast.Deps.str();
      std::string ExactStr = Exact.Deps.str();
      Out.push_back({std::string(S.Tag) + std::to_string(I) + "\t" + FastStr +
                         "\t" + (Fast.Overflowed ? "1" : "0") + "\t" +
                         (ExactStr == FastStr ? "=" : ExactStr),
                     Src});
    }
  }
  return Out;
}

TEST(DepsetGolden, GeneratedNests) {
  std::vector<Line> Got = computeLines();
  if (const char *U = std::getenv("IRLT_UPDATE_GOLDEN"); U && *U == '1') {
    std::ofstream OutF(goldenPath(), std::ios::binary);
    for (const Line &L : Got)
      OutF << L.Text << "\n";
    ASSERT_TRUE(OutF.good()) << goldenPath();
    GTEST_SKIP() << "rewrote " << goldenPath();
  }
  std::ifstream In(goldenPath(), std::ios::binary);
  ASSERT_TRUE(In) << "missing " << goldenPath()
                  << " (regenerate with IRLT_UPDATE_GOLDEN=1)";
  std::vector<std::string> Want;
  for (std::string S; std::getline(In, S);)
    Want.push_back(S);
  ASSERT_EQ(Want.size(), Got.size());
  unsigned Mismatches = 0;
  for (size_t I = 0; I < Got.size() && Mismatches < 10; ++I) {
    if (Want[I] == Got[I].Text)
      continue;
    ++Mismatches;
    ADD_FAILURE() << "want: " << Want[I] << "\n got: " << Got[I].Text << "\n"
                  << Got[I].Source;
  }
}

} // namespace
