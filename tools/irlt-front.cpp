//===- tools/irlt-front.cpp - Sharded multi-process serve front -----------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// irlt-front: the sharded multi-process front over irlt-serve
/// (docs/FRONT.md). Spawns N worker processes, routes every request
/// frame to the shard owning its canonical nest fingerprint, supervises
/// the workers (health probes, crash/hang detection, backed-off warm
/// restarts), and speaks the unchanged IRL1 framed protocol on its own
/// socket - irlt-servectl and any irlt-batch corpus work against it
/// as-is, byte-identical to a direct single-process run.
///
///   irlt-front (--socket PATH | --port N) --shards N [options]
///     every irlt-serve flag, read by irlt-serve's own parser
///     (serve::parseServeArgs). The front listens with --socket/--port,
///     --max-conns, --max-frame-bytes, --write-timeout-ms and --fault;
///     every worker runs with the engine flags, the write timeout and
///     the faults, with irlt-serve semantics (--jobs is per worker
///     process; --persist PATH journals shard i to PATH.shard<i>, which
///     a respawned worker replays to come back warm)
///     --shards N           worker processes (default 2)
///     --serve-bin PATH     irlt-serve binary (default: next to argv[0])
///     --shard-base PATH    worker socket base; shard i gets <base>.w<i>
///                          (default: the front socket path)
///     --window-cap N       per-shard outstanding-request window;
///                          past it the front sheds "overloaded"
///     --probe-interval-ms N / --probe-timeout-ms N
///                          worker health-probe cadence and bound
///     --pending-timeout-ms N  oldest in-flight request age past which
///                          a worker counts as hung and is SIGKILLed
///     --backoff-ms N / --backoff-max-ms N
///                          restart backoff (doubling, capped)
///     --startup-timeout-ms N  bound on one worker start
///
/// SIGTERM/SIGINT drain: stop accepting, resolve every in-flight
/// request (completed or structured "shard_down"), SIGTERM every worker
/// so each persists its journal, and print one aggregated "drained"
/// record.
///
/// Exit status: 0 clean drain, 1 startup/usage errors, 2 when any
/// response write failed during the run.
///
//===----------------------------------------------------------------------===//

#include "front/Front.h"
#include "support/Json.h"

#include <csignal>
#include <cstdio>
#include <string>

using namespace irlt;
using namespace irlt::front;

namespace {

Front *GFront = nullptr;

void onSignal(int) {
  if (GFront)
    GFront->requestDrain(); // one async-signal-safe pipe write
}

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --port N) [--shards N] [--serve-bin PATH]\n"
      "       [--shard-base PATH] [--jobs N] [--no-cache] [--cache-cap N]\n"
      "       [--queue-cap N] [--deadline-ms N] [--persist PATH]\n"
      "       [--journal-cap N] [--max-conns N] [--max-frame-bytes N]\n"
      "       [--write-timeout-ms N] [--window-cap N]\n"
      "       [--probe-interval-ms N] [--probe-timeout-ms N]\n"
      "       [--pending-timeout-ms N] [--backoff-ms N] [--backoff-max-ms N]\n"
      "       [--startup-timeout-ms N] [--fault SPEC]\n"
      "       (--fault list prints the supported fault kinds)\n"
      "sharded multi-process front over irlt-serve (docs/FRONT.md)\n"
      "exit status: 0 clean drain, 2 response-write failures, 1 tool "
      "error\n",
      Argv0);
}

/// The worker binary ships next to this one; derive the default from
/// argv[0] so test trees and install trees both work unconfigured.
std::string defaultServeBinary(const char *Argv0) {
  std::string Self = Argv0;
  size_t Slash = Self.rfind('/');
  if (Slash == std::string::npos)
    return "./irlt-serve";
  return Self.substr(0, Slash + 1) + "irlt-serve";
}

/// The front-only flags; irlt-serve's own flags fill Opts.Serve.
std::optional<bool> frontFlag(ArgCursor &C, FrontOptions &Opts) {
  const std::string &A = C.arg();
  if (A == "--shards")
    return C.number(Opts.Shards, 1, 64);
  if (A == "--serve-bin")
    return C.value(Opts.ServeBinary);
  if (A == "--shard-base")
    return C.value(Opts.ShardPathBase);
  if (A == "--window-cap")
    return C.number(Opts.WindowCapacity, 1);
  if (A == "--probe-interval-ms")
    return C.number(Opts.ProbeIntervalMillis);
  if (A == "--probe-timeout-ms")
    return C.number(Opts.ProbeTimeoutMillis);
  if (A == "--pending-timeout-ms")
    return C.number(Opts.PendingTimeoutMillis);
  if (A == "--backoff-ms")
    return C.number(Opts.RestartBackoffMillis, 1);
  if (A == "--backoff-max-ms")
    return C.number(Opts.RestartBackoffMaxMillis, 1);
  if (A == "--startup-timeout-ms")
    return C.number(Opts.StartupTimeoutMillis, 1);
  return std::nullopt;
}

} // namespace

int main(int argc, char **argv) {
  FrontOptions Opts;
  if (std::optional<int> Exit = serve::parseServeArgs(
          argc, argv, Opts.Serve, usage,
          [&](ArgCursor &C) { return frontFlag(C, Opts); }))
    return *Exit;
  if (Opts.ServeBinary.empty())
    Opts.ServeBinary = defaultServeBinary(argv[0]);

  Front F(Opts);
  ErrorOr<bool> Started = F.start();
  if (!Started) {
    std::fprintf(stderr, "error: %s\n", Started.message().c_str());
    return 1;
  }

  GFront = &F;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  {
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-front");
    W.field("record", "serving");
    if (!Opts.Serve.SocketPath.empty())
      W.field("socket", Opts.Serve.SocketPath);
    else
      W.field("port", static_cast<uint64_t>(F.boundPort()));
    W.field("shards", static_cast<uint64_t>(F.shardCount()));
    W.field("jobs", static_cast<uint64_t>(Opts.Serve.Jobs));
    W.endObject();
    std::fprintf(stdout, "%s\n", W.str().c_str());
    std::fflush(stdout);
  }

  bool Clean = F.run();
  GFront = nullptr;

  {
    const FrontStats &St = F.stats();
    const FrontDrainSummary &D = F.drainSummary();
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-front");
    W.field("record", "drained");
    W.field("shards", D.ShardCount);
    W.field("clean_worker_exits", D.CleanExits);
    W.field("served", St.Served.load());
    W.field("window_shed", St.WindowShed.load());
    W.field("shard_down_rejects", St.ShardDownRejects.load());
    W.field("drain_rejects", St.DrainRejects.load());
    W.field("bad_frames", St.BadFrames.load());
    W.field("write_failures", St.WriteFailures.load());
    W.field("restarts", St.Restarts.load());
    W.field("probe_failures", St.ProbeFailures.load());
    W.field("hang_kills", St.HangKills.load());
    W.field("worker_served", D.WorkerServed);
    W.field("worker_errors", D.WorkerErrors);
    W.field("persisted_entries", D.PersistedEntries);
    W.endObject();
    std::fprintf(stdout, "%s\n", W.str().c_str());
    std::fflush(stdout);
  }

  return Clean ? 0 : 2;
}
