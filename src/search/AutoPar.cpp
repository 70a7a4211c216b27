//===- search/AutoPar.cpp - AutoPar/AutoVec as search presets -------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
// The original standalone AutoPar enumerator is gone: autoParallelize and
// autoVectorize are now depth-1 presets of the general search engine
// (search/Search.h) with the parallelism objective, restricted to the
// candidate families the old enumerator walked - signed permutations and
// wavefront skews, no Block/Interleave. The engine's (cost, canonical
// key) tie-break reproduces the old "first best, cheaper template wins"
// ordering: Parallelize-only keys sort before ReversePermute keys, which
// sort before Unimodular keys, and wavefronts already lose the +1
// cheap-base point.
//
//===----------------------------------------------------------------------===//

#include "search/AutoPar.h"

#include "search/Search.h"

using namespace irlt;

namespace {

AutoParResult runPreset(const LoopNest &Nest, const DepSet &D,
                        const AutoParOptions &Options, search::ParMode Mode) {
  search::SearchOptions SO;
  SO.Obj = search::Objective::Parallelism;
  SO.Par = Mode;
  SO.Depth = 1;
  SO.Beam = 1;
  SO.TopK = 1;
  SO.Threads = 1;
  SO.Candidates.Permutations = true;
  SO.Candidates.Reversals = Options.TryReversals;
  SO.Candidates.FullPermuteLimit = 6;
  SO.Candidates.Wavefronts = Options.TryWavefronts;
  SO.Candidates.MaxSkew = Options.MaxSkew;
  SO.Candidates.WavefrontLimit = 6;
  SO.Candidates.TileSizes.clear();
  SO.Candidates.InterleaveFactors.clear();

  search::SearchResult SR = search::searchTransformations(Nest, D, SO);

  AutoParResult Result;
  Result.Enumerated = static_cast<unsigned>(SR.Stats.Enumerated);
  Result.Legal = static_cast<unsigned>(SR.Stats.Legal);
  if (SR.Best) {
    AutoParCandidate C;
    C.Seq = std::move(SR.Best->Seq);
    C.ParallelLoops = std::move(SR.Best->ParallelLoops);
    C.Score = SR.Best->ParScore;
    Result.Best = std::move(C);
  }
  return Result;
}

} // namespace

AutoParResult irlt::autoParallelize(const LoopNest &Nest, const DepSet &D,
                                    const AutoParOptions &Options) {
  return runPreset(Nest, D, Options, search::ParMode::Greedy);
}

AutoParResult irlt::autoVectorize(const LoopNest &Nest, const DepSet &D,
                                  const AutoParOptions &Options) {
  return runPreset(Nest, D, Options, search::ParMode::InnermostOnly);
}
