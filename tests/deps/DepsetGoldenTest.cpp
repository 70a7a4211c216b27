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
/// DepSet ("=" when it equals the pipeline's). Each line of
/// tests/data/deps/generated_provenance.golden holds every DepPairInfo
/// field of the pipeline backend's pairs for the same nest. The corpus:
///  - 2,000 nests drawn the way perfbench's cold-script stream draws them
///    (fuzz::generateColdNest, the stream of benchmark seed 0);
///  - 100 3-deep triangular nests, which that stream leaves out;
///  - 200 overflow-mode nests (a 2^62 loop extent).
/// Both backends run on FMSystem, so the golden pins the solver's
/// feasibility and range answers on the inputs the analyzers build, row
/// cap included. Regenerate both with IRLT_UPDATE_GOLDEN=1.
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

std::string goldenPath(const char *Name) {
  return std::string(IRLT_DEPS_DATA_DIR) + "/" + Name;
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

/// One line per corpus nest: its tag and index, then what \p Describe
/// makes of the parsed nest.
template <typename Fn> std::vector<Line> computeLines(Fn Describe) {
  std::vector<Line> Out;
  for (const Section &S : Sections) {
    for (unsigned I = 0; I < S.Count; ++I) {
      std::string Src = drawNest(S.D, fuzz::caseSeed(S.Seed, I)).render();
      auto Parsed = parseLoopNest(Src);
      EXPECT_TRUE(Parsed) << Src << Parsed.message();
      if (!Parsed)
        continue;
      LoopNest Nest = Parsed.take();
      Out.push_back(
          {std::string(S.Tag) + std::to_string(I) + "\t" + Describe(Nest),
           Src});
    }
  }
  return Out;
}

/// Compares \p Got with the golden file \p Name, or rewrites the file
/// under IRLT_UPDATE_GOLDEN=1.
void expectGolden(const char *Name, const std::vector<Line> &Got) {
  std::string Path = goldenPath(Name);
  if (const char *U = std::getenv("IRLT_UPDATE_GOLDEN"); U && *U == '1') {
    std::ofstream OutF(Path, std::ios::binary);
    for (const Line &L : Got)
      OutF << L.Text << "\n";
    ASSERT_TRUE(OutF.good()) << Path;
    GTEST_SKIP() << "rewrote " << Path;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing " << Path
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

TEST(DepsetGolden, GeneratedNests) {
  expectGolden("generated_depsets.golden",
               computeLines([](const LoopNest &Nest) {
                 deps::DepResult Fast = deps::pipelineOracle().analyze(Nest);
                 deps::DepResult Exact = deps::fmExactOracle().analyze(Nest);
                 std::string FastStr = Fast.Deps.str();
                 std::string ExactStr = Exact.Deps.str();
                 return FastStr + "\t" + (Fast.Overflowed ? "1" : "0") +
                        "\t" + (ExactStr == FastStr ? "=" : ExactStr);
               }));
}

TEST(DepsetGolden, GeneratedProvenance) {
  // One item per ordered reference pair, in visit order: the array, the
  // source and target occurrences (w = write, r = read), the deciding
  // test, i when independent, x when exact, and the vector count.
  expectGolden("generated_provenance.golden",
               computeLines([](const LoopNest &Nest) {
                 std::string S;
                 for (const DepPairInfo &P :
                      deps::pipelineOracle().analyze(Nest).Pairs) {
                   if (!S.empty())
                     S += ";";
                   S += P.Array + " " + std::to_string(P.SrcOcc) +
                        (P.SrcIsWrite ? "w " : "r ") +
                        std::to_string(P.DstOcc) + (P.DstIsWrite ? "w " : "r ") +
                        depDecisionName(P.Decided) + " " +
                        (P.Independent ? "i" : "-") + (P.Exact ? "x " : "- ") +
                        std::to_string(P.NumVectors);
                 }
                 return S;
               }));
}

} // namespace
