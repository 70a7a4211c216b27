//===- bench/bench_deps.cpp - Dependence oracle throughput ----------------===//
//
// Experiment D1: the two DepOracle backends (src/deps/,
// docs/DEPENDENCE.md) over a mixed corpus of unit-stride, strided, and
// conservative-fallback nests. Records nests/s per backend plus the
// differential cross-check rate, so BENCH_deps.json tracks both the
// production analyzer's throughput and the cost multiplier of the
// first-principles fm-exact backend across commits. The exact backend
// is the fuzzer's soundness referee; it may be slow, but its slowdown
// factor should stay visible.
//
// BM_DepsGeneratedCorpus times the pipeline backend over generated
// nests, the mix the cold-script request benchmark analyzes: the 2,000
// cold-stream nests of the dependence-set golden
// (tests/deps/DepsetGoldenTest.cpp), one series per depth and
// unit/strided class. The 7-nest corpus above has one triangular and
// one strided nest and does not reflect that mix.
//
//===----------------------------------------------------------------------===//

#include "BenchNests.h"

#include "deps/CrossCheck.h"
#include "deps/DepOracle.h"
#include "fuzz/NestGen.h"
#include "fuzz/Rng.h"

#include "BenchMain.h"

#include <benchmark/benchmark.h>

#include <algorithm>

using namespace irlt;

namespace {

std::vector<LoopNest> corpus() {
  std::vector<LoopNest> Out;
  // The paper's workhorse nests: stencil, matmul, triangular.
  Out.push_back(bench::stencilNest());
  Out.push_back(bench::matmulNest());
  Out.push_back(bench::triangularNest());
  Out.push_back(bench::deepNest(4));
  // Strided nests exercise the trip-counter d-space.
  Out.push_back(bench::parseOrDie("do i = 1, 100, 2\n"
                                  "  do j = 1, 50\n"
                                  "    a(i, j) = a(i - 2, j) + a(i, j - 1)\n"
                                  "  enddo\n"
                                  "enddo\n"));
  // GCD/parity independence: rational solutions, no integer ones.
  Out.push_back(bench::parseOrDie("do i = 1, 100\n"
                                  "  a(2 * i) = a(2 * i + 1)\n"
                                  "enddo\n"));
  // Conservative fallback: non-affine in every subscript dimension.
  Out.push_back(bench::parseOrDie("do i = 1, 10\n"
                                  "  do j = 1, 10\n"
                                  "    a(i * i, j * j) = a(i, j)\n"
                                  "  enddo\n"
                                  "enddo\n"));
  return Out;
}

void runOracle(benchmark::State &State, const deps::DepOracle &O) {
  std::vector<LoopNest> Nests = corpus();
  uint64_t Analyzed = 0, Vectors = 0;
  for (auto _ : State) {
    for (const LoopNest &N : Nests) {
      deps::DepResult R = O.analyze(N);
      benchmark::DoNotOptimize(R);
      ++Analyzed;
      Vectors += R.Deps.vectors().size();
    }
  }
  State.counters["nests_per_sec"] = benchmark::Counter(
      static_cast<double>(Analyzed), benchmark::Counter::kIsRate);
  State.counters["vectors_per_nest"] =
      Analyzed ? static_cast<double>(Vectors) / static_cast<double>(Analyzed)
               : 0.0;
}

void BM_DepsPipelineOracle(benchmark::State &State) {
  runOracle(State, deps::pipelineOracle());
}
BENCHMARK(BM_DepsPipelineOracle);

void BM_DepsFMExactOracle(benchmark::State &State) {
  runOracle(State, deps::fmExactOracle());
}
BENCHMARK(BM_DepsFMExactOracle);

void BM_DepsCrossCheck(benchmark::State &State) {
  // The full differential path the fuzzer's --deps mode runs per case:
  // both backends plus the coverage comparison.
  std::vector<LoopNest> Nests = corpus();
  uint64_t Checked = 0, Agreements = 0;
  for (auto _ : State) {
    for (const LoopNest &N : Nests) {
      deps::DepResult Fast = deps::pipelineOracle().analyze(N);
      deps::DepResult Exact = deps::fmExactOracle().analyze(N);
      deps::CrossCheckResult CC = deps::crossCheckDeps(Fast, Exact);
      benchmark::DoNotOptimize(CC);
      ++Checked;
      if (CC.Stat == deps::CrossCheckResult::Status::Agree)
        ++Agreements;
    }
  }
  State.counters["checks_per_sec"] = benchmark::Counter(
      static_cast<double>(Checked), benchmark::Counter::kIsRate);
  State.counters["agree_ratio"] =
      Checked ? static_cast<double>(Agreements) / static_cast<double>(Checked)
              : 0.0;
}
BENCHMARK(BM_DepsCrossCheck);

/// The golden's cold-stream nests of depth \p Depth whose loops include a
/// non-unit step (\p Strided) or do not.
std::vector<LoopNest> generatedCorpus(unsigned Depth, bool Strided) {
  std::vector<LoopNest> Out;
  for (unsigned I = 0; I < 2000; ++I) {
    fuzz::Rng R(fuzz::caseSeed(fuzz::ColdStreamSeed, I));
    fuzz::NestSpec Spec = fuzz::generateColdNest(R);
    bool AnyStrided =
        std::any_of(Spec.Loops.begin(), Spec.Loops.end(),
                    [](const fuzz::LoopSpec &L) { return L.Step != 1; });
    if (Spec.depth() == Depth && AnyStrided == Strided)
      Out.push_back(bench::parseOrDie(Spec.render()));
  }
  return Out;
}

void BM_DepsGeneratedCorpus(benchmark::State &State) {
  std::vector<LoopNest> Nests =
      generatedCorpus(static_cast<unsigned>(State.range(0)), State.range(1));
  uint64_t Analyzed = 0;
  for (auto _ : State) {
    for (const LoopNest &N : Nests) {
      deps::DepResult R = deps::pipelineOracle().analyze(N);
      benchmark::DoNotOptimize(R);
      ++Analyzed;
    }
  }
  State.counters["nests"] = static_cast<double>(Nests.size());
  State.counters["nests_per_sec"] = benchmark::Counter(
      static_cast<double>(Analyzed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DepsGeneratedCorpus)
    ->ArgNames({"depth", "strided"})
    ->ArgsProduct({{1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

} // namespace

IRLT_BENCHMARK_MAIN()
