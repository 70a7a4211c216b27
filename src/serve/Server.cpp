//===- serve/Server.cpp - The irlt-serve daemon core ---------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "engine/Engine.h"
#include "support/Json.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace irlt;
using namespace irlt::serve;

namespace {

/// One admitted request. LineNo is the request's *logical* line number:
/// Seq + 1 for a directly connected client, or the line_no a "fwd"
/// envelope carried (irlt-front multiplexes many client connections onto
/// one worker connection, so the worker-side sequence number would
/// otherwise leak into default ids and parse-error messages and break
/// the byte-identity contract).
struct Job {
  ConnPtr C;
  uint64_t Seq = 0;
  uint64_t LineNo = 0;
  std::string Payload;
  std::string Id;
  engine::DeadlineToken Deadline;
};

} // namespace

ListenerOptions ServeOptions::listener(std::string Name) const {
  return {.Name = std::move(Name),
          .SocketPath = SocketPath,
          .TcpPort = TcpPort,
          .MaxConns = MaxConns,
          .MaxFrameBytes = MaxFrameBytes,
          .WriteTimeoutMillis = WriteTimeoutMillis,
          .ShortRead = Faults.ShortRead};
}

struct Server::Impl {
  ServeOptions Opts;
  engine::EngineOptions EO;
  api::Pipeline P;
  CacheJournal Journal;
  ServerStats Stats;
  JournalLoadResult Loaded;
  std::atomic<uint64_t> Persisted{0};

  // Admission queue.
  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<Job> Queue;
  bool ReadersDone = false;

  std::vector<std::thread> Workers;

  /// The connection side; its reader threads call dispatch().
  Listener L;

  explicit Impl(ServeOptions O)
      : Opts(std::move(O)),
        P(api::PipelineOptions{Opts.EnableCache, {}, Opts.CacheCapacity}),
        Journal(Opts.JournalCapacity),
        L(Opts.listener("serve"), Stats,
          [this](const ConnPtr &C, uint64_t Seq, std::string Payload) {
            dispatch(C, Seq, std::move(Payload));
          }) {
    // EO.MaxLineBytes keeps the engine's 1 MiB line bound: under the
    // default frame bound, so both the oversized_line record and the
    // frame reject stay reachable.
    EO.EnableCache = Opts.EnableCache;
    EO.CacheCapacity = Opts.CacheCapacity;
    EO.Faults = Opts.Faults;
    EO.ToolName = "irlt-serve";
    EO.CollectNestKeys = !Opts.PersistPath.empty();
  }

  void workerLoop();
  void dispatch(const ConnPtr &C, uint64_t Seq, std::string Payload);
  std::string healthzRecord(const std::string &Id);
  std::string statzRecord(const std::string &Id);
  std::string persistRecord(const std::string &Id);
};

//===----------------------------------------------------------------------===//
// Inline ops
//===----------------------------------------------------------------------===//

std::string Server::Impl::healthzRecord(const std::string &Id) {
  json::JsonWriter W;
  json::beginToolRecord(W, "irlt-serve");
  W.field("record", "healthz");
  W.field("id", Id);
  W.field("ok", true);
  W.field("draining", L.draining());
  W.endObject();
  return W.take();
}

std::string Server::Impl::statzRecord(const std::string &Id) {
  size_t Depth;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Depth = Queue.size();
  }
  api::CacheStats CS = P.cacheStats();
  json::JsonWriter W;
  json::beginToolRecord(W, "irlt-serve");
  W.field("record", "statz");
  W.field("id", Id);
  W.field("ok", true);
  W.field("draining", L.draining());
  W.field("queue_depth", static_cast<uint64_t>(Depth));
  W.field("queue_capacity", static_cast<uint64_t>(Opts.QueueCapacity));
  W.field("jobs", static_cast<uint64_t>(Opts.Jobs));
  W.key("counters").beginObject();
  W.field("conns_accepted", Stats.ConnsAccepted.load());
  W.field("conns_rejected", Stats.ConnsRejected.load());
  W.field("frames_in", Stats.FramesIn.load());
  W.field("inline_ops", Stats.InlineOps.load());
  W.field("admitted", Stats.Admitted.load());
  W.field("shed", Stats.Shed.load());
  W.field("drain_rejects", Stats.DrainRejects.load());
  W.field("deadline", Stats.Deadline.load());
  W.field("served", Stats.Served.load());
  W.field("errors", Stats.Errors.load());
  W.field("bad_frames", Stats.BadFrames.load());
  W.field("write_failures", Stats.WriteFailures.load());
  W.endObject();
  W.key("cache").beginObject();
  W.field("dep_hits", CS.DepHits);
  W.field("dep_misses", CS.DepMisses);
  W.field("dep_lookups", CS.DepLookups);
  W.field("dep_inserts", CS.DepInserts);
  W.field("dep_evictions", CS.DepEvictions);
  W.field("dep_entries", CS.DepEntries);
  W.field("legality_hits", CS.LegalityHits);
  W.field("legality_misses", CS.LegalityMisses);
  W.field("legality_lookups", CS.LegalityLookups);
  W.field("legality_inserts", CS.LegalityInserts);
  W.field("legality_evictions", CS.LegalityEvictions);
  W.field("legality_entries", CS.LegalityEntries);
  W.endObject();
  W.key("journal").beginObject();
  W.field("enabled", !Opts.PersistPath.empty());
  W.field("entries", static_cast<uint64_t>(Journal.size()));
  W.field("load_found", Loaded.FileFound);
  W.field("load_loaded", Loaded.Loaded);
  W.field("load_replayed", Loaded.Replayed);
  W.field("load_discarded", Loaded.Discarded);
  W.field("load_truncated", Loaded.Truncated);
  W.endObject();
  W.endObject();
  return W.take();
}

std::string Server::Impl::persistRecord(const std::string &Id) {
  if (Opts.PersistPath.empty())
    return engine::makeErrorRecord(
        "irlt-serve", Id, engine::errkind::Request,
        "persist: persistence is disabled (daemon started without "
        "--persist)");
  ErrorOr<uint64_t> N = Journal.dump(Opts.PersistPath, Opts.Faults);
  if (!N)
    return engine::makeErrorRecord("irlt-serve", Id, engine::errkind::Internal,
                                   N.message());
  json::JsonWriter W;
  json::beginToolRecord(W, "irlt-serve");
  W.field("record", "persist");
  W.field("id", Id);
  W.field("ok", true);
  W.field("entries", *N);
  W.endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// Dispatch (reader thread): inline ops, drain rejects, admission
//===----------------------------------------------------------------------===//

void Server::Impl::dispatch(const ConnPtr &C, uint64_t Seq,
                            std::string Payload) {
  uint64_t LineNo = Seq + 1;
  uint64_t DeadlineMs = Opts.DefaultDeadlineMillis;

  // One shallow pre-parse for routing fields; a request that fails to
  // parse here is still admitted, so the engine renders the exact
  // structured "request" error irlt-batch would.
  ErrorOr<json::JsonValue> Doc = json::JsonValue::parse(Payload);

  // The forwarding envelope: irlt-front wraps each routed request as
  // {"op":"fwd","line_no":N,"req":"<original payload>"} so the worker
  // processes the *original* bytes under the *front-side* line number -
  // default ids and parse-error messages come out byte-identical to a
  // direct single-process run. Unwrapped in a loop so a client payload
  // that is itself an envelope behaves the same whether it arrives
  // directly or re-wrapped by the front (the innermost line_no wins,
  // exactly as in the direct case). Each level strips envelope bytes,
  // so the frame bound terminates the loop.
  while (Doc && Doc->isObject() && Doc->stringOr("op") == "fwd") {
    int64_t Ln = Doc->intOr("line_no", 0);
    if (Ln > 0)
      LineNo = static_cast<uint64_t>(Ln);
    Payload = Doc->stringOr("req");
    Doc = json::JsonValue::parse(Payload);
  }

  std::string Id = std::to_string(LineNo);
  if (Doc && Doc->isObject()) {
    Id = Doc->stringOr("id", Id);
    std::string Op = Doc->stringOr("op");
    if (!Op.empty()) {
      ++Stats.InlineOps;
      if (Op == "healthz")
        L.deliver(C, Seq, healthzRecord(Id));
      else if (Op == "statz")
        L.deliver(C, Seq, statzRecord(Id));
      else if (Op == "persist")
        L.deliver(C, Seq, persistRecord(Id));
      else
        L.deliver(C, Seq,
                  engine::makeErrorRecord("irlt-serve", Id,
                                          engine::errkind::Request,
                                          "unknown op '" + Op + "'"));
      return;
    }
    int64_t D = Doc->intOr("deadline_ms", -1);
    if (D >= 0)
      DeadlineMs = static_cast<uint64_t>(D);
  }

  if (L.draining()) {
    ++Stats.DrainRejects;
    L.deliver(C, Seq,
              engine::makeErrorRecord("irlt-serve", Id,
                                      engine::errkind::Draining,
                                      "server is draining; request rejected"));
    return;
  }

  Job J;
  J.C = C;
  J.Seq = Seq;
  J.LineNo = LineNo;
  J.Payload = std::move(Payload);
  J.Id = Id;
  // Deadlines are measured from arrival: queue wait burns budget, so an
  // overloaded-but-not-shedding server still bounds client latency.
  if (DeadlineMs)
    J.Deadline = engine::DeadlineToken::afterMillis(DeadlineMs);

  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (Queue.size() < Opts.QueueCapacity) {
      Queue.push_back(std::move(J));
      ++Stats.Admitted;
      QueueCv.notify_one();
      return;
    }
  }
  ++Stats.Shed;
  L.deliver(C, Seq,
            engine::makeErrorRecord(
                "irlt-serve", Id, engine::errkind::Overloaded,
                "admission queue full (" + std::to_string(Opts.QueueCapacity) +
                    " pending); retry later"));
}

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

void Server::Impl::workerLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [&] { return !Queue.empty() || ReadersDone; });
      if (Queue.empty())
        return; // drained: readers are done and nothing is pending
      J = std::move(Queue.front());
      Queue.pop_front();
    }

    // The worker-hang fault: wedge this worker thread *before* any
    // response exists for the marked request, so the front's pending-age
    // watchdog (not a healthz probe - the reader thread still answers
    // those) is what has to detect it and SIGKILL the process.
    if (Opts.Faults.WorkerHang &&
        J.Id.find(WorkerHangIdMarker) != std::string::npos)
      std::this_thread::sleep_for(std::chrono::hours(1));

    std::string Record;
    bool IsError = false;
    bool IsDeadline = false;
    if (J.Deadline.expired()) {
      // Expired while queued: never start work the client gave up on.
      Record = engine::makeErrorRecord(
          "irlt-serve", J.Id, engine::errkind::Deadline,
          "deadline expired before processing started");
      IsError = IsDeadline = true;
    } else {
      try {
        // The stage timings are not read here: a sampler per job keeps
        // them from piling up for the life of the process.
        engine::StageSampler Sampler;
        engine::RequestOutcome O = engine::processRequest(
            P, EO, J.Payload, J.LineNo, Sampler,
            J.Deadline.armed() ? &J.Deadline : nullptr);
        Record = std::move(O.Record);
        IsError = O.Error;
        IsDeadline = O.ErrorKind == engine::errkind::Deadline;
        if (!O.NestKey.empty())
          Journal.record(O.NestKey, O.NestSource, O.Script);
      } catch (const std::exception &E) {
        Record = engine::makeErrorRecord(
            "irlt-serve", J.Id, engine::errkind::Internal,
            std::string("internal: worker exception: ") + E.what());
        IsError = true;
      }
    }
    if (IsError)
      ++Stats.Errors;
    if (IsDeadline)
      ++Stats.Deadline;
    ++Stats.Served;
    L.deliver(J.C, J.Seq, Record);

    // The worker-kill fault: crash the whole process right *after* the
    // marked request's response went out (so that response is already
    // byte-identical to a fault-free run) but with every other in-flight
    // request on this process stranded - exactly the recovery surface
    // the front must cover with "shard_down" rejects and a restart. The
    // journal is dumped first so the restart is warm, standing in for
    // the periodic persist a production deployment would run.
    if (Opts.Faults.WorkerKill &&
        J.Id.find(WorkerKillIdMarker) != std::string::npos) {
      if (!Opts.PersistPath.empty())
        (void)Journal.dump(Opts.PersistPath, FaultConfig());
      _exit(137);
    }
  }
}

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

Server::Server(ServeOptions Opts) : M(std::make_unique<Impl>(std::move(Opts))) {}

Server::~Server() {
  // Safety net for a started-but-never-run() server (error paths in the
  // tool): drain so every thread is joined before members are torn down.
  if (M->L.started()) {
    requestDrain();
    run();
  }
}

ErrorOr<bool> Server::start() {
  ErrorOr<bool> Bound = M->L.open();
  if (!Bound)
    return Bound;

  if (!M->Opts.PersistPath.empty())
    M->Loaded =
        M->Journal.loadAndReplay(M->Opts.PersistPath, M->P, M->Opts.Faults);

  unsigned Jobs = M->Opts.Jobs ? M->Opts.Jobs : 1;
  for (unsigned I = 0; I < Jobs; ++I)
    M->Workers.emplace_back([this] { M->workerLoop(); });
  M->L.start();
  return true;
}

bool Server::run() {
  // Stop accepting and join every reader: from here on nothing more is
  // admitted.
  M->L.drain();

  // Every admitted request completes: workers exit only on empty queue.
  {
    std::lock_guard<std::mutex> Lock(M->QueueMu);
    M->ReadersDone = true;
  }
  M->QueueCv.notify_all();
  for (std::thread &W : M->Workers)
    W.join();
  M->Workers.clear();

  if (!M->Opts.PersistPath.empty()) {
    ErrorOr<uint64_t> N = M->Journal.dump(M->Opts.PersistPath, M->Opts.Faults);
    if (N)
      M->Persisted.store(*N);
  }
  return M->Stats.WriteFailures.load() == 0;
}

void Server::requestDrain() { M->L.requestDrain(); }

int Server::boundPort() const { return M->L.boundPort(); }
const ServerStats &Server::stats() const { return M->Stats; }
const JournalLoadResult &Server::journalLoad() const { return M->Loaded; }
uint64_t Server::persistedEntries() const { return M->Persisted.load(); }
