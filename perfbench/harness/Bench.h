//===- perfbench/harness/Bench.h - Shared declarations of the harness -----===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request benchmark harness: seeded corpus generation (Corpus.cpp),
/// the closed-loop in-process runner behind warm-script, cold-script and
/// auto-search (InProcess.cpp), the open-loop irlt-front client that times
/// the serve and front layers (ServeProbe.cpp), native timing of the code
/// the requests produce (Native.cpp) and span tracing (Trace.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for sockets, compiled kernels and the trace file.
  std::string RunDir = ".bench_run";
  std::string ServeBin;
  std::string FrontBin;
  /// Closed-loop worker threads and serve-probe connections: nproc.
  unsigned Threads = 1;
};

/// What a run prints: the result object of the last output line, plus
/// human-readable notes before it.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  /// Marks the run incorrect and says why (on stdout, before the result).
  void fail(const std::string &Why);
  /// One human-readable line on stdout.
  static void note(const std::string &Line);
  /// The final result line.
  std::string json() const;
};

//===--- Statistics ---------------------------------------------------------
/// The \p Q quantile (0..1) of \p V by nearest rank; sorts \p V.
double quantile(std::vector<double> &V, double Q);
double median(std::vector<double> V);

/// The tail the end-to-end latency metric reports: p90, or the median when
/// fewer than ten samples lie beyond p90. Higher percentiles measure the
/// hypervisor on a virtual machine: between runs of the same code, p99.9
/// varied by more than 100% and p99 by 28%, p50 by 16%.
struct Tail {
  double Percentile = 50;
  double Value = 0;
};
Tail latencyTail(std::vector<double> LatMs);

/// Peak resident memory of this process, in MiB.
double peakRssMb();

//===--- Corpus -------------------------------------------------------------
/// The paper's nests, each renamable so that a copy has a fresh canonical
/// key while keeping its shape (array names are part of the key).
enum class Paper { Matmul, Stencil, Triangular, Deep3 };
inline constexpr unsigned NumPaper = 4;
const char *paperName(Paper P);
std::string paperSource(Paper P, const std::string &Suffix);
/// The fixed script each paper nest carries in the script workloads.
const char *paperScript(Paper P);
/// Parameter bindings for timing the nest natively (a few ms per kernel).
std::map<std::string, int64_t> paperBindings(Paper P);

/// A request line plus what the harness needs to know about it.
struct Request {
  std::string Line;
  /// >= 0: a paper nest whose transformed output feeds the native panel.
  int Panel = -1;
};

/// One workload's request stream: request I is a pure function of (seed,
/// I), so any request can be regenerated for the referee.
class Corpus {
public:
  Corpus(std::string Workload, uint64_t Seed);

  Request at(uint64_t I) const;
  /// Requests come in rounds of this size (auto-search); runs end on a
  /// round boundary so every run serves the same mix.
  uint64_t roundSize() const;
  /// The distinct warm requests (warm-script's set-up pass, the serve
  /// probe's warm-up pass).
  const std::vector<Request> &warmSet() const { return Warm; }
  /// A set-up request that the measured stream never repeats.
  Request setupRequest(uint64_t K) const;
  /// Request I of the serve probe's stream (any workload's corpus).
  Request serveAt(uint64_t I) const;
  /// Panel slots: one per (paper nest, objective or script) the workload
  /// can produce; names index the native speedup table.
  const std::vector<std::string> &panelNames() const { return PanelNames; }
  Paper panelPaper(int Slot) const { return PanelPaper[Slot]; }

private:
  std::string Workload;
  uint64_t Seed;
  std::vector<Request> Warm;
  std::vector<std::string> PanelNames;
  std::vector<Paper> PanelPaper;

  Request coldRequest(uint64_t I, const std::string &Tag) const;
  Request autoRequest(uint64_t I) const;
};

//===--- Native panel -------------------------------------------------------
/// A served record by request index.
using Records = std::map<uint64_t, std::string>;

/// Compiles and runs the code a run's requests produced against the
/// original nests, outside the timed region, with the host C compiler at
/// -O2: the first request of each paper-nest panel slot (timed, feeding
/// winner_speedup) plus up to \p Untimed other auto requests (checked
/// only). The sequence of each is re-derived through a fresh cache-off
/// Pipeline (an auto winner must match the served record's sequence), and
/// the memory images of original and transformed code must match; any
/// mismatch fails the run. Reports winner_speedup (trace off) or
/// cgen.compile_ms / cgen.run_ms (trace on).
void measurePanel(const Options &O, const Corpus &C,
                  const std::map<int, uint64_t> &FirstOfSlot,
                  const Records &Kept, unsigned Untimed, Report &R);

//===--- Workloads ----------------------------------------------------------
void runInProcess(const Options &O, Report &R);
/// The serve and front per-layer figures for a traced run: a few seconds
/// of \p C's serve stream through irlt-front (refereed), then the hop
/// probes.
void probeServeStack(const Options &O, const Corpus &C, Report &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
