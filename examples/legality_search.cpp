//===- examples/legality_search.cpp - Search without touching the nest ---===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
// Section 5's headline advantage: a transformation is "an independent
// entity, distinct from the loop nests on which it may be applied", so an
// optimizer can enumerate many candidate sequences, test each for
// legality, and only generate code once - arbitrary search and undo with
// zero nest mutation.
//
// This example enumerates every signed permutation (ReversePermute
// instantiation) of the Figure 2 nest plus parallelization choices,
// reports which candidates are legal, and generates code for the one
// exposing the most parallelism.
//
//===----------------------------------------------------------------------===//

#include "dependence/DepAnalysis.h"
#include "eval/Evaluator.h"
#include "ir/Parser.h"
#include "search/AutoPar.h"
#include "transform/Sequence.h"
#include "transform/Templates.h"

#include <cstdio>

using namespace irlt;

int main() {
  // Figure 2-flavoured nest with a skewed flow dependence plus an
  // outer-carried one: D = {(1, -1), (+, 0)}.
  ErrorOr<LoopNest> NestOr =
      parseLoopNest("arrays b\n"
                    "do i = 2, n - 1\n"
                    "  do j = 2, n - 1\n"
                    "    a(i, j) = a(i - 1, j + 1) + b(j)\n"
                    "    b(j) = a(i, j)\n"
                    "  enddo\n"
                    "enddo\n");
  if (!NestOr) {
    std::fprintf(stderr, "parse error: %s\n", NestOr.message().c_str());
    return 1;
  }
  LoopNest Nest = NestOr.take();
  DepSet D = analyzeDependences(Nest);
  std::printf("nest:\n%sdependences: %s\n\n", Nest.str().c_str(),
              D.str().c_str());

  struct Candidate {
    TransformSequence Seq;
    std::string Desc;
    bool Legal;
  };
  std::vector<Candidate> Candidates;

  // All 8 signed permutations x 4 parallelization masks = 32 candidates.
  for (unsigned Swap = 0; Swap < 2; ++Swap)
    for (unsigned R1 = 0; R1 < 2; ++R1)
      for (unsigned R2 = 0; R2 < 2; ++R2)
        for (unsigned ParI = 0; ParI < 2; ++ParI)
          for (unsigned ParJ = 0; ParJ < 2; ++ParJ) {
            std::vector<unsigned> Perm =
                Swap ? std::vector<unsigned>{1, 0}
                     : std::vector<unsigned>{0, 1};
            TransformSequence Seq = TransformSequence::of(
                {makeReversePermute(2, {R1 != 0, R2 != 0}, Perm)});
            if (ParI || ParJ)
              Seq.append(makeParallelize(2, {ParI != 0, ParJ != 0}));
            std::string Desc =
                std::string(Swap ? "swap" : "keep") + (R1 ? " -i" : " +i") +
                (R2 ? " -j" : " +j") + (ParI ? " par(outer)" : "") +
                (ParJ ? " par(inner)" : "");
            bool Legal = isLegal(Seq, Nest, D).Legal;
            Candidates.push_back(Candidate{Seq, Desc, Legal});
          }

  unsigned LegalCount = 0;
  for (const Candidate &C : Candidates) {
    std::printf("  %-40s %s\n", C.Desc.c_str(),
                C.Legal ? "legal" : "illegal");
    LegalCount += C.Legal;
  }
  std::printf("\n%u of %zu candidates legal; note the loop nest itself was "
              "never modified during the search.\n\n",
              LegalCount, Candidates.size());

  // Pick the legal candidate with the highest measured parallelism.
  EvalConfig Config;
  Config.Params["n"] = 16;
  const Candidate *Best = nullptr;
  double BestPar = 0;
  for (const Candidate &C : Candidates) {
    if (!C.Legal)
      continue;
    ErrorOr<LoopNest> Out = applySequence(C.Seq, Nest);
    if (!Out)
      continue;
    ArrayStore S;
    EvalResult R = evaluate(*Out, Config, S);
    ParallelismStats P = parallelismStats(*Out, R);
    if (P.AvgParallelism > BestPar) {
      BestPar = P.AvgParallelism;
      Best = &C;
    }
  }
  if (!Best) {
    std::fprintf(stderr, "no legal candidate?\n");
    return 1;
  }
  std::printf("best candidate: %s (avg parallelism %.2f at n=16)\n",
              Best->Desc.c_str(), BestPar);
  ErrorOr<LoopNest> Out = applySequence(Best->Seq, Nest);
  std::printf("generated code:\n%s\n", Out->str().c_str());

  // The same search, automated: the AutoPar driver also explores
  // wavefront hyperplanes, so it can beat the hand-enumerated space.
  AutoParResult Auto = autoParallelize(Nest, D);
  std::printf("autoParallelize: %u candidates, %u legal\n", Auto.Enumerated,
              Auto.Legal);
  if (Auto.Best) {
    std::printf("auto-chosen sequence: %s\n", Auto.Best->Seq.str().c_str());
    ErrorOr<LoopNest> AOut = applySequence(Auto.Best->Seq, Nest);
    if (AOut)
      std::printf("auto-generated code:\n%s", AOut->str().c_str());
  }
  return 0;
}
