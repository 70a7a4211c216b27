//===- bench/bench_fig2_legality.cpp - Uniform legality throughput -------===//
//
// Experiment F2 (DESIGN.md): the uniform legality test of Section 3.2 on
// Figure 2-style decisions. Measures IsLegal throughput as a function of
// the dependence-set size and the sequence length - the operation an
// optimizer runs once per candidate transformation, which the paper
// argues is cheap because the loop nest is never modified during the
// search (Section 5, "arbitrary levels of search and undo").
//
//===----------------------------------------------------------------------===//

#include "BenchNests.h"

#include "legality/IncrementalEngine.h"
#include "search/AutoPar.h"

#include "BenchMain.h"

#include <benchmark/benchmark.h>

using namespace irlt;

namespace {

DepSet depsOfSize(unsigned Count) {
  DepSet D;
  for (unsigned I = 0; I < Count; ++I) {
    int64_t A = static_cast<int64_t>(I % 3) + 1;
    int64_t B = static_cast<int64_t>(I % 5) - 2;
    D.insert(DepVector::distances({A, B}));
  }
  return D;
}

void BM_LegalityVsDepCount(benchmark::State &State) {
  LoopNest N = bench::parseOrDie("do i = 2, n - 1\n  do j = 2, n - 1\n"
                                 "    a(i, j) = b(j)\n  enddo\nenddo\n");
  DepSet D = depsOfSize(static_cast<unsigned>(State.range(0)));
  TransformSequence Seq =
      TransformSequence::of({makeReversePermute(2, {false, true}, {1, 0})});
  uint64_t Legal = 0;
  for (auto _ : State) {
    LegalityResult R = isLegal(Seq, N, D);
    Legal += R.Legal;
    benchmark::DoNotOptimize(R);
  }
  benchmark::DoNotOptimize(Legal);
}
BENCHMARK(BM_LegalityVsDepCount)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

/// The repeated interchange+reverse chain (self-inverse overall) both
/// sequence-length series run on.
TransformSequence repeatedPairSeq(int64_t Pairs) {
  TransformSequence Seq;
  for (int64_t I = 0; I < Pairs; ++I) {
    Seq.append(makeReversePermute(2, {false, true}, {1, 0}));
    Seq.append(makeReversePermute(2, {true, false}, {1, 0}));
  }
  return Seq;
}

/// The prefix-memoized engine (legality/IncrementalEngine.h), owned by
/// the benchmark and warmed before timing: every prefix of the chain is
/// cached, so the cost is one cache hit per stage plus the final
/// lexicographic test. Compare against BM_LegalityVsSequenceLengthLegacy
/// below for the uncached walk.
void BM_LegalityVsSequenceLength(benchmark::State &State) {
  LoopNest N = bench::parseOrDie("do i = 2, n - 1\n  do j = 2, n - 1\n"
                                 "    a(i, j) = b(j)\n  enddo\nenddo\n");
  DepSet D;
  D.insert(DepVector::distances({1, -1}));
  D.insert(DepVector({DepElem::pos(), DepElem::zero()}));
  TransformSequence Seq = repeatedPairSeq(State.range(0));
  legality::IncrementalEngine Eng;
  // Without the warm-up, a chain whose cold walk outlasts the minimum
  // benchmark time would be timed cold, in its only iteration.
  Eng.check(Seq, N, D, legality::Mode::Full);
  for (auto _ : State) {
    LegalityResult R = Eng.check(Seq, N, D, legality::Mode::Full);
    benchmark::DoNotOptimize(R);
  }
  State.counters["seq_len"] = static_cast<double>(Seq.size());
}
BENCHMARK(BM_LegalityVsSequenceLength)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

/// The uncached whole-sequence walk on the same chain - every stage
/// recomputed on every call (isLegal()). This is the "legacy" series in
/// BENCH_search.json; the ratio to the incremental series above is the
/// prefix cache's payoff.
void BM_LegalityVsSequenceLengthLegacy(benchmark::State &State) {
  LoopNest N = bench::parseOrDie("do i = 2, n - 1\n  do j = 2, n - 1\n"
                                 "    a(i, j) = b(j)\n  enddo\nenddo\n");
  DepSet D;
  D.insert(DepVector::distances({1, -1}));
  D.insert(DepVector({DepElem::pos(), DepElem::zero()}));
  TransformSequence Seq = repeatedPairSeq(State.range(0));
  for (auto _ : State) {
    LegalityResult R = isLegal(Seq, N, D);
    benchmark::DoNotOptimize(R);
  }
  State.counters["seq_len"] = static_cast<double>(Seq.size());
}
BENCHMARK(BM_LegalityVsSequenceLengthLegacy)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_LegalityReducedVsUnreduced(benchmark::State &State) {
  // The paper's efficiency note: reduce() shortens chains before testing.
  LoopNest N = bench::parseOrDie("do i = 2, n - 1\n  do j = 2, n - 1\n"
                                 "    a(i, j) = b(j)\n  enddo\nenddo\n");
  DepSet D;
  D.insert(DepVector::distances({1, -1}));
  TransformSequence Seq;
  for (int I = 0; I < 32; ++I)
    Seq.append(makeReversePermute(2, {I % 2 == 0, I % 3 == 0}, {1, 0}));
  bool Reduced = State.range(0) != 0;
  TransformSequence Use = Reduced ? Seq.reduced() : Seq;
  for (auto _ : State) {
    LegalityResult R = isLegal(Use, N, D);
    benchmark::DoNotOptimize(R);
  }
  State.counters["stages"] = static_cast<double>(Use.size());
}
BENCHMARK(BM_LegalityReducedVsUnreduced)->Arg(0)->Arg(1);

void BM_SearchEightPermutations(benchmark::State &State) {
  // The "search and undo" workload: test every signed permutation of a
  // 2-nest (8 candidates) against Figure 2's dependences, without ever
  // touching the nest.
  LoopNest N = bench::parseOrDie("do i = 2, n - 1\n  do j = 2, n - 1\n"
                                 "    a(i, j) = b(j)\n  enddo\nenddo\n");
  DepSet D;
  D.insert(DepVector::distances({1, -1}));
  D.insert(DepVector({DepElem::pos(), DepElem::zero()}));
  uint64_t LegalCount = 0;
  for (auto _ : State) {
    LegalCount = 0;
    for (unsigned P = 0; P < 2; ++P)
      for (unsigned R1 = 0; R1 < 2; ++R1)
        for (unsigned R2 = 0; R2 < 2; ++R2) {
          std::vector<unsigned> Perm =
              P ? std::vector<unsigned>{1, 0} : std::vector<unsigned>{0, 1};
          TransformSequence Seq = TransformSequence::of(
              {makeReversePermute(2, {R1 != 0, R2 != 0}, Perm)});
          LegalCount += isLegal(Seq, N, D).Legal;
        }
    benchmark::DoNotOptimize(LegalCount);
  }
  State.counters["legal_of_8"] = static_cast<double>(LegalCount);
}
BENCHMARK(BM_SearchEightPermutations);

void BM_AutoParSearch(benchmark::State &State) {
  // The full Section 5/6 workload: enumerate signed permutations and
  // wavefront hyperplanes, legality-test each (fast path), rank - the
  // nest is never modified. Stencil (needs a wavefront) vs matmul
  // (plain parallelization wins).
  bool Stencil = State.range(0) != 0;
  LoopNest N = Stencil ? bench::stencilNest() : bench::matmulNest();
  DepSet D = analyzeDependences(N);
  unsigned Enumerated = 0, Legal = 0;
  for (auto _ : State) {
    AutoParResult R = autoParallelize(N, D);
    Enumerated = R.Enumerated;
    Legal = R.Legal;
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(Stencil ? "stencil" : "matmul");
  State.counters["candidates"] = Enumerated;
  State.counters["legal"] = Legal;
}
BENCHMARK(BM_AutoParSearch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

IRLT_BENCHMARK_MAIN();
