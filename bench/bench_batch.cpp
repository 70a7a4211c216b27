//===- bench/bench_batch.cpp - Batch engine throughput --------------------===//
//
// Experiment B1: the irlt-batch engine (docs/API.md) replaying a corpus
// built from the paper's bench nests at 1, 4, and 8 worker threads.
// Records requests/s, the shared-cache hit rates, and the p50/p95
// whole-request latency, so BENCH_batch.json tracks both scaling and
// cache effectiveness. Every iteration starts cold: a new BatchEngine
// owns a new Pipeline, whose caches include its legality engine, so the
// thread-count series compare like with like.
// The result stream is byte-identical across the thread counts by
// contract; only throughput may differ.
//
//===----------------------------------------------------------------------===//

#include "BenchNests.h"

#include "engine/Engine.h"
#include "support/Json.h"

#include "BenchMain.h"

#include <benchmark/benchmark.h>

using namespace irlt;

namespace {

std::string requestLine(const std::string &Id, const LoopNest &Nest,
                        const std::string &Fields) {
  std::string Out = "{\"id\": \"";
  Out += Id;
  Out += "\", \"nest\": \"";
  Out += json::escape(Nest.str());
  Out += "\", ";
  Out += Fields;
  Out += '}';
  return Out;
}

/// The replayed corpus: every bench nest under both a fixed script and
/// the search planner, repeated so the memoization caches see the
/// repeated-nest profile batch workloads actually have.
std::vector<std::string> corpus(unsigned Repeats) {
  std::vector<std::string> Lines;
  for (unsigned R = 0; R < Repeats; ++R) {
    std::string Tag = std::to_string(R);
    Lines.push_back(requestLine(
        "stencil-" + Tag, bench::stencilNest(),
        "\"script\": \"skew 1 2 1\\ninterchange 1 2\", \"reduce\": true"));
    Lines.push_back(requestLine("matmul-block-" + Tag, bench::matmulNest(),
                                "\"script\": \"block 1 3 8 8 8\""));
    Lines.push_back(requestLine("matmul-auto-" + Tag, bench::matmulNest(),
                                "\"auto\": \"locality\", \"beam\": 2, "
                                "\"depth\": 1"));
    Lines.push_back(requestLine("triangular-" + Tag, bench::triangularNest(),
                                "\"script\": \"interchange 1 2\""));
    Lines.push_back(requestLine("deep-par-" + Tag, bench::deepNest(4),
                                "\"auto\": \"par\", \"beam\": 2, "
                                "\"depth\": 1"));
  }
  return Lines;
}

void BM_BatchEngineThreads(benchmark::State &State) {
  std::vector<std::string> Lines = corpus(/*Repeats=*/20);
  engine::EngineOptions O;
  O.Jobs = static_cast<unsigned>(State.range(0));
  engine::EngineMetrics M;
  for (auto _ : State) {
    engine::BatchEngine E(O);
    std::string Out = E.runToString(Lines, &M);
    benchmark::DoNotOptimize(Out);
  }
  double WallSec = static_cast<double>(M.WallNs) * 1e-9;
  State.counters["requests"] = static_cast<double>(M.Requests);
  State.counters["requests_per_sec"] =
      WallSec > 0 ? static_cast<double>(M.Requests) / WallSec : 0;
  State.counters["dep_cache_hit_rate"] = M.Cache.depHitRate();
  State.counters["legality_cache_hit_rate"] = M.Cache.legalityHitRate();
  State.counters["worker_utilization"] = M.workerUtilization();
  const engine::StageMetrics &Total =
      M.Stages[static_cast<unsigned>(engine::Stage::Total)];
  State.counters["p50_total_us"] = static_cast<double>(Total.P50Ns) * 1e-3;
  State.counters["p95_total_us"] = static_cast<double>(Total.P95Ns) * 1e-3;
}
BENCHMARK(BM_BatchEngineThreads)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

/// Cache contribution in isolation: the same corpus, one worker, caches
/// on vs off.
void BM_BatchEngineCache(benchmark::State &State) {
  std::vector<std::string> Lines = corpus(/*Repeats=*/20);
  engine::EngineOptions O;
  O.Jobs = 1;
  O.EnableCache = State.range(0) != 0;
  engine::EngineMetrics M;
  for (auto _ : State) {
    engine::BatchEngine E(O);
    std::string Out = E.runToString(Lines, &M);
    benchmark::DoNotOptimize(Out);
  }
  double WallSec = static_cast<double>(M.WallNs) * 1e-9;
  State.counters["cache_enabled"] = O.EnableCache ? 1 : 0;
  State.counters["requests_per_sec"] =
      WallSec > 0 ? static_cast<double>(M.Requests) / WallSec : 0;
  State.counters["dep_cache_hit_rate"] = M.Cache.depHitRate();
}
BENCHMARK(BM_BatchEngineCache)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

IRLT_BENCHMARK_MAIN();
