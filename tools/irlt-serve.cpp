//===- tools/irlt-serve.cpp - Long-lived batch-engine daemon --------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// irlt-serve: the fault-tolerant service front of the batch engine
/// (docs/SERVE.md). Listens on a Unix-domain or loopback TCP socket,
/// speaks length-prefixed frames (serve/Frame.h) whose payloads are the
/// exact ndjson request records irlt-batch reads, and answers with the
/// exact result records irlt-batch writes - byte-identical at any
/// --jobs value, with a cold, warm, or journal-restored cache.
///
///   irlt-serve (--socket PATH | --port N) [options]
///     --jobs N           worker threads (default 1)
///     --no-cache         disable the shared memoization caches
///     --cache-cap N      bound each cache to N entries (LRU; default
///                        and 0: 4096)
///     --queue-cap N      admission-queue bound (default 64); a full
///                        queue sheds with a structured "overloaded"
///                        record
///     --max-conns N      concurrent-connection bound (default 64)
///     --deadline-ms N    default per-request deadline (0 = none)
///     --persist PATH     crash-safe cache journal: tolerantly replayed
///                        on start, atomically dumped on drain and on
///                        the {"op":"persist"} request
///     --journal-cap N    journal entry bound (default: --cache-cap;
///                        0 = unbounded)
///     --write-timeout-ms N  response-write timeout (default 5000); a
///                        stalled client loses its connection, never a
///                        worker
///     --max-frame-bytes N  per-frame payload bound (default 4 MiB);
///                        irlt-front raises it on its workers so the
///                        forwarding envelope never shrinks the
///                        client-visible frame budget
///     --fault SPEC       deterministic fault injection (also via the
///                        IRLT_FAULT environment variable); SPEC "list"
///                        prints the supported kinds and exits 0
///
/// SIGTERM/SIGINT drain gracefully: stop accepting, finish every
/// admitted request, flush every response, persist the journal, exit 0.
/// The daemon prints one "serving" record to stdout when ready (TCP mode
/// includes the bound port) and one "drained" record on exit.
///
/// The flags are parsed by serve::parseServeArgs (serve/ServeArgs.cpp),
/// which irlt-front shares.
///
/// Exit status: 0 clean drain, 1 startup/usage errors, 2 when any
/// response write failed during the run.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/Json.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

using namespace irlt;
using namespace irlt::serve;

namespace {

Server *GServer = nullptr;

void onSignal(int) {
  if (GServer)
    GServer->requestDrain(); // one async-signal-safe pipe write
}

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --port N) [--jobs N] [--no-cache]\n"
      "       [--cache-cap N] [--queue-cap N] [--max-conns N]\n"
      "       [--deadline-ms N] [--persist PATH] [--journal-cap N]\n"
      "       [--write-timeout-ms N] [--max-frame-bytes N] [--fault SPEC]\n"
      "       (--fault list prints the supported fault kinds)\n"
      "long-lived framed-protocol daemon over the batch engine "
      "(docs/SERVE.md)\n"
      "exit status: 0 clean drain, 2 response-write failures, 1 tool "
      "error\n",
      Argv0);
}

} // namespace

int main(int argc, char **argv) {
  ServeOptions Opts;
  if (std::optional<int> Exit = parseServeArgs(argc, argv, Opts, usage))
    return *Exit;

  // The worker-slow-start fault: delay the bind, so a supervisor's
  // bounded startup probing (irlt-front) is what the tests exercise.
  if (Opts.Faults.WorkerSlowStart)
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));

  Server S(Opts);
  ErrorOr<bool> Started = S.start();
  if (!Started) {
    std::fprintf(stderr, "error: %s\n", Started.message().c_str());
    return 1;
  }

  GServer = &S;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  {
    const JournalLoadResult &L = S.journalLoad();
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-serve");
    W.field("record", "serving");
    if (!Opts.SocketPath.empty())
      W.field("socket", Opts.SocketPath);
    else
      W.field("port", static_cast<uint64_t>(S.boundPort()));
    W.field("jobs", static_cast<uint64_t>(Opts.Jobs));
    W.field("journal_found", L.FileFound);
    W.field("journal_replayed", L.Replayed);
    W.field("journal_discarded", L.Discarded);
    W.endObject();
    std::fprintf(stdout, "%s\n", W.str().c_str());
    std::fflush(stdout);
  }

  bool Clean = S.run();
  GServer = nullptr;

  {
    const ServerStats &St = S.stats();
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-serve");
    W.field("record", "drained");
    W.field("served", St.Served.load());
    W.field("shed", St.Shed.load());
    W.field("errors", St.Errors.load());
    W.field("bad_frames", St.BadFrames.load());
    W.field("write_failures", St.WriteFailures.load());
    W.field("persisted_entries", S.persistedEntries());
    W.endObject();
    std::fprintf(stdout, "%s\n", W.str().c_str());
    std::fflush(stdout);
  }

  return Clean ? 0 : 2;
}
