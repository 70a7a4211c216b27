//===- perfbench/harness/main.cpp - The request benchmark entry point -----===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
//
//   perfbench-harness --workload NAME --seed N --seconds S --trace 0|1
//                     --serve-bin PATH --front-bin PATH [--run-dir DIR]
//
// Runs one workload in this fresh process and prints, as its last line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// when untraced, the per-layer metrics when traced.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sys/resource.h>
#include <thread>

namespace perfbench {

void Report::fail(const std::string &Why) {
  Correct = false;
  note("FAIL: " + Why);
}

void Report::note(const std::string &Line) {
  std::fprintf(stdout, "%s\n", Line.c_str());
  std::fflush(stdout);
}

std::string Report::json() const {
  irlt::json::JsonWriter W;
  W.beginObject();
  W.field("correct", Correct);
  W.field("attempted", Attempted);
  W.field("failed", Failed);
  W.key("metrics").beginObject();
  for (const auto &[Name, VU] : Metrics) {
    W.key(Name).beginObject();
    W.field("value", VU.first);
    W.field("unit", VU.second);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.take();
}

double quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Q * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double median(std::vector<double> V) { return quantile(V, 0.5); }

Tail latencyTail(std::vector<double> LatMs) {
  double N = static_cast<double>(LatMs.size());
  if (N - std::ceil(0.9 * N) >= 10)
    return {90, quantile(LatMs, 0.9)};
  return {50, quantile(LatMs, 0.5)};
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

namespace {

const char *const Workloads[] = {"warm-script", "cold-script", "auto-search"};

const char *const EndToEnd[] = {"throughput_rps", "latency_p50_ms",
                                "latency_tail_ms", "setup_s", "peak_rss_mb",
                                "winner_speedup"};

/// Every per-layer metric a traced run prints; a layer the workload does
/// not reach reads 0.
const std::pair<const char *, const char *> PerLayer[] = {
    {"ir.parse_us", "us"},
    {"ir.fingerprint_us", "us"},
    {"deps.lookup_us", "us"},
    {"deps.lookups_per_request", "count"},
    {"deps.hit_ratio", "ratio"},
    {"deps.analyze_us", "us"},
    {"deps.analyze_p95_us", "us"},
    {"deps.pairs_ziv", "count/analysis"},
    {"deps.pairs_gcd", "count/analysis"},
    {"deps.pairs_fm", "count/analysis"},
    {"deps.pairs_conservative", "count/analysis"},
    {"legality.hit_us", "us"},
    {"legality.full_us", "us"},
    {"legality.fast_us", "us"},
    {"legality.hit_ratio", "ratio"},
    {"legality.engine_hit_ratio", "ratio"},
    {"search.request_ms", "ms"},
    {"search.enumerated", "count"},
    {"search.legal", "count"},
    {"search.analyzer_pruned", "count"},
    {"search.cost_measure_us", "us"},
    {"transform.apply_us", "us"},
    {"analysis.analyze_us", "us"},
    {"witness.validate_ms", "ms"},
    {"cgen.compile_ms", "ms"},
    {"cgen.run_ms", "ms"},
    {"engine.self_us", "us"},
    {"engine.jobs_speedup", "x"},
    {"serve.hop_us", "us"},
    {"serve.rss_growth_kb_per_kreq", "KiB/kreq"},
    {"front.hop_us", "us"},
    {"serve.generator_late_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Puts the metrics in the documented order; fills per-layer metrics the
/// workload does not reach with 0, and fails on a missing end-to-end one.
void finish(const Options &O, Report &R) {
  std::map<std::string, std::pair<double, std::string>> Got(R.Metrics.begin(),
                                                             R.Metrics.end());
  R.Metrics.clear();
  if (O.Trace) {
    for (const auto &[Name, Unit] : PerLayer) {
      auto It = Got.find(Name);
      R.metric(Name, It == Got.end() ? 0.0 : It->second.first,
               It == Got.end() ? Unit : It->second.second);
    }
    return;
  }
  for (const char *Name : EndToEnd) {
    auto It = Got.find(Name);
    if (It == Got.end()) {
      R.fail(std::string("no value measured for ") + Name);
      continue;
    }
    R.metric(Name, It->second.first, It->second.second);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench-harness --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH --front-bin PATH "
               "[--run-dir DIR]\n");
  return 2;
}

} // namespace
} // namespace perfbench

using namespace perfbench;

int main(int argc, char **argv) {
  Options O;
  O.Threads = std::max(1u, std::thread::hardware_concurrency());
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string A = argv[I], V = argv[I + 1];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--serve-bin")
      O.ServeBin = V;
    else if (A == "--front-bin")
      O.FrontBin = V;
    else if (A == "--run-dir")
      O.RunDir = V;
    else
      return usage();
  }
  if (std::find(std::begin(Workloads), std::end(Workloads), O.Workload) ==
          std::end(Workloads) ||
      !(O.Seconds > 0))
    return usage();
  std::filesystem::create_directories(O.RunDir);

  Report::note("workload " + O.Workload + ", seed " + std::to_string(O.Seed) +
               ", " + std::to_string(O.Seconds) + " s, trace " +
               (O.Trace ? "on" : "off") + ", " + std::to_string(O.Threads) +
               " threads");
  Report R;
  runInProcess(O, R);
  finish(O, R);
  if (R.Attempted == 0) {
    Report::note("error: no request completed");
    return 1;
  }
  std::fprintf(stdout, "%s\n", R.json().c_str());
  return 0;
}
