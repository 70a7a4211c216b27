//===- bench/bench_front.cpp - Sharded front throughput -------------------===//
//
// Experiment F1: the irlt-front sharded multi-process front (docs/
// FRONT.md) against a direct single-process server on the same corpus.
// The front buys isolation (a crashed worker strands one shard, not the
// service) and per-shard cache locality (same canonicalNestKey -> same
// worker); what it costs is a forwarding hop per request. BENCH_front
// .json tracks both passes - cold (workers fresh) and warm (worker
// caches hot) - plus the robustness price tag: how long a killed worker
// takes to be detected, respawned, and probed back to healthy.
//
//===----------------------------------------------------------------------===//

#include "BenchNests.h"

#include "front/Front.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Json.h"

#include "BenchMain.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace irlt;

namespace {

#ifndef IRLT_SERVE_PATH
#define IRLT_SERVE_PATH "irlt-serve"
#endif

constexpr uint64_t RecvMs = 120000;

std::string sockPath(const std::string &Name) {
  return (std::filesystem::temp_directory_path() /
          ("irlt_bench_front_" + Name + ".sock"))
      .string();
}

/// The replayed corpus: the bench nests under scripts and the planner,
/// repeated so per-shard caches see the repeated-nest profile a
/// long-lived service actually has.
std::vector<std::string> corpus(unsigned Repeats) {
  auto Item = [](const std::string &Id, const LoopNest &Nest,
                 const std::string &Fields) {
    return "{\"id\": \"" + Id + "\", \"nest\": \"" +
           json::escape(Nest.str()) + "\", " + Fields + "}";
  };
  std::vector<std::string> Lines;
  for (unsigned R = 0; R < Repeats; ++R) {
    std::string Tag = std::to_string(R);
    Lines.push_back(Item("stencil-" + Tag, bench::stencilNest(),
                         "\"script\": \"skew 1 2 1\\ninterchange 1 2\", "
                         "\"reduce\": true"));
    Lines.push_back(Item("matmul-block-" + Tag, bench::matmulNest(),
                         "\"script\": \"block 1 3 8 8 8\""));
    Lines.push_back(Item("matmul-auto-" + Tag, bench::matmulNest(),
                         "\"auto\": \"locality\", \"beam\": 2, \"depth\": 1"));
    Lines.push_back(Item("triangular-" + Tag, bench::triangularNest(),
                         "\"script\": \"interchange 1 2\""));
  }
  return Lines;
}

/// Pipelines the whole corpus down one connection and drains one
/// response per request. Returns wall nanoseconds for the pass, or 0 on
/// any transport failure.
uint64_t timedPass(const std::string &Sock,
                   const std::vector<std::string> &Lines) {
  ErrorOr<serve::ClientConn> C = serve::connectUnix(Sock);
  if (!C)
    return 0;
  auto T0 = std::chrono::steady_clock::now();
  for (const std::string &L : Lines)
    if (!C->sendFrame(L))
      return 0;
  for (size_t I = 0; I < Lines.size(); ++I)
    if (!C->recvFrame(RecvMs))
      return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

/// Polls the front's aggregated healthz for up to \p Millis, first
/// until the outage is visible (ok:false - the killed worker can take a
/// few ms to actually exit, and a poll before that would clock a
/// recovery that never happened), then until ok:true again. Returns the
/// nanoseconds from the first poll to recovery, or 0 if either phase
/// timed out.
uint64_t waitDownThenHealthyNs(const std::string &Sock, int Millis) {
  auto T0 = std::chrono::steady_clock::now();
  bool SawDown = false;
  for (int I = 0; I < Millis / 10; ++I) {
    ErrorOr<serve::ClientConn> C = serve::connectUnix(Sock);
    if (C && C->sendFrame("{\"op\":\"healthz\",\"id\":\"w\"}")) {
      ErrorOr<std::string> P = C->recvFrame(5000);
      if (P && P->find("\"ok\":false") != std::string::npos)
        SawDown = true;
      if (SawDown && P && P->find("\"ok\":true") != std::string::npos)
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - T0)
                .count());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return 0;
}

/// Arg(0): 0 = direct single-process server (in-process, the PR-6
/// baseline), N > 0 = irlt-front with N spawned worker shards. Each
/// iteration starts the service fresh, runs a cold pass and a warm pass
/// of the same corpus, and drains.
void BM_FrontVsDirectThroughput(benchmark::State &State) {
  const std::vector<std::string> Lines = corpus(/*Repeats=*/10);
  const unsigned Shards = static_cast<unsigned>(State.range(0));
  uint64_t ColdNs = 0, WarmNs = 0;
  for (auto _ : State) {
    if (Shards == 0) {
      serve::ServeOptions O;
      O.SocketPath = sockPath("direct");
      serve::Server S(O);
      if (!S.start())
        continue;
      ColdNs = timedPass(O.SocketPath, Lines);
      WarmNs = timedPass(O.SocketPath, Lines);
      S.requestDrain();
      S.run();
    } else {
      front::FrontOptions O;
      O.Serve.SocketPath = sockPath("front");
      O.Shards = Shards;
      O.ServeBinary = IRLT_SERVE_PATH;
      front::Front F(O);
      if (!F.start())
        continue;
      ColdNs = timedPass(O.Serve.SocketPath, Lines);
      WarmNs = timedPass(O.Serve.SocketPath, Lines);
      F.requestDrain();
      F.run();
    }
  }
  double N = static_cast<double>(Lines.size());
  State.counters["shards"] = Shards;
  State.counters["requests"] = N;
  State.counters["cold_requests_per_sec"] =
      ColdNs ? N / (static_cast<double>(ColdNs) * 1e-9) : 0;
  State.counters["warm_requests_per_sec"] =
      WarmNs ? N / (static_cast<double>(WarmNs) * 1e-9) : 0;
}
BENCHMARK(BM_FrontVsDirectThroughput)->Arg(0)->Arg(1)->Arg(3)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

/// The robustness price tag: with the worker-kill fault armed, one
/// marker request crashes the only shard's worker right after it
/// responds. Measures kill -> supervisor reap -> backoff -> respawn ->
/// journal replay -> healthz ok, as seen by a client.
void BM_FrontRestartToHealthy(benchmark::State &State) {
  uint64_t RestartNs = 0;
  for (auto _ : State) {
    front::FrontOptions O;
    O.Serve.SocketPath = sockPath("restart");
    O.Shards = 1;
    O.ServeBinary = IRLT_SERVE_PATH;
    O.Serve.Faults.WorkerKill = true;
    O.RestartBackoffMillis = 50;
    O.ProbeIntervalMillis = 100;
    front::Front F(O);
    if (!F.start())
      continue;
    {
      ErrorOr<serve::ClientConn> C = serve::connectUnix(O.Serve.SocketPath);
      if (!C)
        continue;
      std::string Req = "{\"id\": \"kill-now\", \"nest\": \"" +
                        json::escape(bench::matmulNest().str()) +
                        "\", \"script\": \"interchange 1 2\"}";
      if (!C->sendFrame(Req) || !C->recvFrame(RecvMs))
        continue;
    }
    // The worker is now dead (or dying); clock the full recovery.
    RestartNs = waitDownThenHealthyNs(O.Serve.SocketPath, /*Millis=*/30000);
    F.requestDrain();
    F.run();
  }
  State.counters["restart_to_healthy_ms"] =
      static_cast<double>(RestartNs) * 1e-6;
  State.counters["backoff_ms"] = 50;
}
BENCHMARK(BM_FrontRestartToHealthy)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

IRLT_BENCHMARK_MAIN();
