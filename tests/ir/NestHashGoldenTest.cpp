//===- tests/ir/NestHashGoldenTest.cpp - Canonical nest key golden --------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins canonicalNestKey() byte for byte. The key is persisted (the serve
/// journal drops an entry whose recomputed key differs) and routed on (the
/// front hashes it to pick a shard), so any change to its bytes is a
/// compatibility break. Each line of tests/data/ir/nest_keys.golden holds,
/// for one nest, whether the key's OverflowGuard tripped and
/// structuralNestHash() (the FNV-1a of the key); the fixed nests and the
/// first transformed nests with min/max, div/mod and an init also carry
/// the full key text. The corpus:
///  - 2,000 nests drawn the way perfbench's cold-script stream draws them
///    (fuzz::generateColdNest, the stream of benchmark seed 0);
///  - the same nests after a generated script is applied, which brings
///    in init statements, min/max and floor/mod bounds;
///  - 200 overflow-mode nests (a 2^62 loop extent), and the same nests
///    after an overflow-mode script;
///  - the four paper nests, NestHashTest's strided nests, and three
///    nests whose key arithmetic overflows.
/// Regenerate with IRLT_UPDATE_GOLDEN=1.
///
//===----------------------------------------------------------------------===//

#include "ir/NestHash.h"

#include "driver/Script.h"
#include "fuzz/NestGen.h"
#include "fuzz/Rng.h"
#include "fuzz/ScriptGen.h"
#include "ir/Parser.h"
#include "support/MathUtils.h"
#include "transform/Sequence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace irlt;

namespace {

std::string goldenPath() {
  return std::string(IRLT_IR_DATA_DIR) + "/nest_keys.golden";
}

const char *const FixedNests[] = {
    // The paper nests: Figure 6's matrix multiply, Figure 1(a)'s stencil,
    // Figure 4(a)'s triangle, and a 3-deep diagonal dependence.
    "arrays B, C\n"
    "do i = 1, n\n  do j = 1, n\n    do k = 1, n\n"
    "      A(i, j) += B(i, k) * C(k, j)\n    enddo\n  enddo\nenddo\n",
    "do i = 2, n - 1\n  do j = 2, n - 1\n"
    "    a(i, j) = (a(i, j) + a(i - 1, j) + a(i, j - 1) + a(i + 1, j) + "
    "a(i, j + 1)) / 5\n  enddo\nenddo\n",
    "do i = 1, n\n  do j = 1, i\n    a(i, j) = a(i, j) + 1\n  enddo\nenddo\n",
    "do i1 = 2, n\n  do i2 = 2, n\n    do i3 = 2, n\n"
    "      a(i1, i2, i3) = a(i1 - 1, i2 - 1, i3 - 1) + 1\n"
    "    enddo\n  enddo\nenddo\n",
    // NestHashTest's strided nests.
    "do i = 1, n\n  do j = 1, n\n    do k = 1, n\n"
    "      a(i, j, k) = a(i, j, k)\n    enddo\n  enddo\nenddo\n",
    "do i = 1, n\n  do j = i + 1, n, 2\n    do k = 1, n\n"
    "      a(i, j, k) = a(i, j, k) + a(i - 2, j, k)\n"
    "    enddo\n  enddo\nenddo\n",
    "do i = 1, n\n  do j = 1, n\n    do k = j, n, 2\n"
    "      a(i, j, k) = a(i, j, k) + a(i, j - 2, k)\n"
    "    enddo\n  enddo\nenddo\n",
    "do i = 1, n, 2\n  do j = 1, n\n    do k = 1, n\n"
    "      a(i, j, k) = a(i, j, k)\n    enddo\n  enddo\nenddo\n",
    "do i = m, n\n  do j = 1, n\n    do k = j, n, 2\n"
    "      a(i, j, k) = a(i, j, k) + a(i, j - 2, k)\n"
    "    enddo\n  enddo\nenddo\n",
    // Keys whose coefficient arithmetic overflows: in the linear form
    // itself, and when two atoms that canonicalize alike merge (i * n and
    // n * i); the last nest's single coefficient is the int64 minimum.
    "do i = 1, n\n  c(i) = i * 4611686018427387904 + "
    "i * 4611686018427387904\nenddo\n",
    "do i = 1, n\n  c(i) = i * n * 4611686018427387904 + "
    "n * i * 4611686018427387904\nenddo\n",
    "do i = 1, n\n  c(i) = i * n * (-4611686018427387904 * 2)\nenddo\n",
};

struct Line {
  std::string Text;
  std::string Source;
};

/// One golden line for \p Nest; \p Full appends the key text.
Line lineFor(const std::string &Tag, const std::string &Key, bool Tripped,
             uint64_t Hash, const std::string &Source, bool Full) {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(Hash));
  std::string Text = Tag + "\t" + (Tripped ? "1" : "0") + "\t" + Hex;
  if (Full)
    Text += "\t" + Key;
  return {std::move(Text), Source};
}

Line lineFor(const std::string &Tag, const LoopNest &Nest,
             const std::string &Source, bool Full) {
  OverflowGuard Guard;
  std::string Key = canonicalNestKey(Nest);
  return lineFor(Tag, Key, Guard.triggered(), structuralNestHash(Nest), Source,
                 Full);
}

/// Which shapes still want a full-text line.
struct Wanted {
  bool MinMax = true, DivMod = true, Init = true;
};

/// A generated nest and, from the same stream, the nest a generated script
/// makes of it (tag "x" + \p Tag; "-" when no script parses and applies).
void addGenerated(std::vector<Line> &Out, const std::string &Tag,
                  fuzz::Rng &R, const fuzz::NestSpec &Spec,
                  const fuzz::ScriptGenOptions &SO, Wanted *Want) {
  std::string Src = Spec.render();
  ErrorOr<LoopNest> Parsed = parseLoopNest(Src);
  EXPECT_TRUE(Parsed) << Src << Parsed.message();
  if (!Parsed)
    return;
  LoopNest Nest = Parsed.take();
  Out.push_back(lineFor(Tag, Nest, Src, false));

  // The first of up to four generated scripts that parses and applies.
  std::string Script;
  ErrorOr<LoopNest> Applied = Failure(Diag::error("no script applied"));
  for (unsigned Try = 0; Try < 4 && !Applied; ++Try) {
    Script = fuzz::joinScript(fuzz::generateScript(R, Spec.depth(), SO).Lines);
    OverflowGuard ApplyGuard; // a saturated apply still yields a nest
    ErrorOr<TransformSequence> Seq =
        parseTransformScript(Script, Nest.numLoops());
    if (Seq)
      Applied = applySequence(*Seq, Nest);
  }
  std::string XTag = "x" + Tag;
  if (!Applied) {
    Out.push_back({XTag + "\t-", Src + Script});
    return;
  }
  OverflowGuard Guard;
  std::string Key = canonicalNestKey(*Applied);
  bool Tripped = Guard.triggered();
  // Full text for the first transformed nest of each shape.
  bool Full = false;
  if (Want) {
    auto take = [&](bool &Need, bool Has) {
      if (Need && Has) {
        Need = false;
        Full = true;
      }
    };
    take(Want->MinMax, Key.find("(min") != std::string::npos ||
                           Key.find("(max") != std::string::npos);
    take(Want->DivMod, Key.find("(div") != std::string::npos ||
                           Key.find("(mod") != std::string::npos);
    take(Want->Init, !Applied->Inits.empty());
  }
  Out.push_back(lineFor(XTag, Key, Tripped, structuralNestHash(*Applied),
                        Src + Script, Full));
}

std::vector<Line> computeLines() {
  std::vector<Line> Out;
  Wanted Want;
  fuzz::ScriptGenOptions SO;
  for (unsigned I = 0; I < 2000; ++I) {
    fuzz::Rng R(fuzz::caseSeed(fuzz::ColdStreamSeed, I));
    fuzz::NestSpec Spec = fuzz::generateColdNest(R);
    addGenerated(Out, "c" + std::to_string(I), R, Spec, SO, &Want);
  }
  fuzz::NestGenOptions NO;
  NO.OverflowMode = true;
  fuzz::ScriptGenOptions OSO;
  OSO.OverflowMode = true;
  for (unsigned I = 0; I < 200; ++I) {
    fuzz::Rng R(fuzz::caseSeed(0x0f10, I));
    fuzz::NestSpec Spec = fuzz::generateNest(R, NO);
    addGenerated(Out, "o" + std::to_string(I), R, Spec, OSO, nullptr);
  }
  unsigned K = 0;
  for (const char *Src : FixedNests) {
    ErrorOr<LoopNest> Parsed = parseLoopNest(Src);
    EXPECT_TRUE(Parsed) << Src << Parsed.message();
    if (Parsed)
      Out.push_back(lineFor("p" + std::to_string(K), *Parsed, Src, true));
    ++K;
  }
  return Out;
}

TEST(NestHashGolden, CanonicalKeysAreByteStable) {
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
