//===- serve/Server.cpp - The irlt-serve daemon core ---------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "engine/Engine.h"
#include "support/Json.h"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace irlt;
using namespace irlt::serve;

namespace {

void setCloexec(int Fd) {
  int Flags = fcntl(Fd, F_GETFD);
  if (Flags >= 0)
    fcntl(Fd, F_SETFD, Flags | FD_CLOEXEC);
}

/// Writes all of \p Data, riding out partial writes and EINTR. The
/// socket carries SO_SNDTIMEO, so a stalled client surfaces as a write
/// error here instead of wedging a worker.
bool writeAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// One client connection. The reader thread and any number of queued
/// jobs share it via shared_ptr; the destructor (last reference) closes
/// the socket, so responses can still flow after the client half-closes
/// its write side.
struct Conn {
  int Fd = -1;
  /// Next sequence number to assign (reader thread only).
  uint64_t NextSeq = 0;

  /// Reorder buffer: responses are written strictly in request order.
  std::mutex WriteMu;
  std::map<uint64_t, std::string> Pending;
  uint64_t NextWrite = 0;
  bool Dead = false;

  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
};
using ConnPtr = std::shared_ptr<Conn>;

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

/// Reader-thread bookkeeping: joined opportunistically by the accept
/// loop (Done) and finally at drain.
struct ReaderSlot {
  std::thread T;
  std::atomic<bool> Done{false};
};

} // namespace

struct Server::Impl {
  ServeOptions Opts;
  engine::EngineOptions EO;
  api::Pipeline P;
  CacheJournal Journal;
  ServerStats Stats;
  JournalLoadResult Loaded;
  std::atomic<uint64_t> Persisted{0};

  int ListenFd = -1;
  int BoundPort = 0;
  int PipeR = -1, PipeW = -1;

  std::atomic<bool> Draining{false};

  // Admission queue.
  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<Job> Queue;
  bool ReadersDone = false;

  // Live reader-side sockets, so drain can wake blocked reads.
  std::mutex ConnMu;
  std::set<int> LiveFds;

  std::thread AcceptThread;
  std::vector<std::unique_ptr<ReaderSlot>> Readers; // accept thread only
  std::vector<std::thread> Workers;

  explicit Impl(ServeOptions O)
      : Opts(std::move(O)),
        P(api::PipelineOptions{Opts.EnableCache, {}, Opts.CacheCapacity}),
        Journal(Opts.JournalCapacity) {
    EO.EnableCache = Opts.EnableCache;
    EO.CacheCapacity = Opts.CacheCapacity;
    EO.MaxLineBytes = Opts.MaxLineBytes;
    EO.Faults = Opts.Faults;
    EO.ToolName = "irlt-serve";
    EO.CollectNestKeys = !Opts.PersistPath.empty();
  }

  ErrorOr<bool> bindSocket();
  void acceptLoop();
  void readerLoop(ConnPtr C);
  void workerLoop();
  void dispatch(const ConnPtr &C, uint64_t Seq, std::string Payload);
  void deliver(const ConnPtr &C, uint64_t Seq, const std::string &Record);
  std::string healthzRecord(const std::string &Id);
  std::string statzRecord(const std::string &Id);
  std::string persistRecord(const std::string &Id);
};

//===----------------------------------------------------------------------===//
// Socket setup
//===----------------------------------------------------------------------===//

ErrorOr<bool> Server::Impl::bindSocket() {
  if (!Opts.SocketPath.empty() && Opts.TcpPort >= 0)
    return Failure(Diag::error("serve: --socket and --port are exclusive"));
  if (Opts.SocketPath.empty() && Opts.TcpPort < 0)
    return Failure(Diag::error("serve: need --socket PATH or --port N"));

  if (!Opts.SocketPath.empty()) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Opts.SocketPath.size() >= sizeof(Addr.sun_path))
      return Failure(Diag::error("serve: socket path too long: '" +
                                 Opts.SocketPath + "'"));
    std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
                Opts.SocketPath.size() + 1);
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return Failure(Diag::error("serve: socket(AF_UNIX) failed"));
    setCloexec(ListenFd);
    ::unlink(Opts.SocketPath.c_str()); // stale socket from a crashed run
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0)
      return Failure(Diag::error("serve: cannot bind '" + Opts.SocketPath +
                                 "': " + std::strerror(errno)));
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return Failure(Diag::error("serve: socket(AF_INET) failed"));
    setCloexec(ListenFd);
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(static_cast<uint16_t>(Opts.TcpPort));
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0)
      return Failure(
          Diag::error("serve: cannot bind 127.0.0.1:" +
                      std::to_string(Opts.TcpPort) + ": " +
                      std::strerror(errno)));
    sockaddr_in Bound{};
    socklen_t Len = sizeof(Bound);
    if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound), &Len) ==
        0)
      BoundPort = ntohs(Bound.sin_port);
  }

  if (::listen(ListenFd, 64) < 0)
    return Failure(Diag::error(std::string("serve: listen failed: ") +
                               std::strerror(errno)));
  return true;
}

//===----------------------------------------------------------------------===//
// Response delivery (per-connection completed-prefix reorder buffer)
//===----------------------------------------------------------------------===//

void Server::Impl::deliver(const ConnPtr &C, uint64_t Seq,
                           const std::string &Record) {
  std::lock_guard<std::mutex> Lock(C->WriteMu);
  C->Pending.emplace(Seq, Record);
  while (!C->Pending.empty() && C->Pending.begin()->first == C->NextWrite) {
    if (!C->Dead) {
      if (!writeAll(C->Fd, encodeFrame(C->Pending.begin()->second))) {
        C->Dead = true;
        ++Stats.WriteFailures;
      }
    }
    C->Pending.erase(C->Pending.begin());
    ++C->NextWrite;
  }
}

//===----------------------------------------------------------------------===//
// Inline ops
//===----------------------------------------------------------------------===//

std::string Server::Impl::healthzRecord(const std::string &Id) {
  json::JsonWriter W;
  json::beginToolRecord(W, "irlt-serve");
  W.field("record", "healthz");
  W.field("id", Id);
  W.field("ok", true);
  W.field("draining", Draining.load());
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
  W.field("draining", Draining.load());
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
        deliver(C, Seq, healthzRecord(Id));
      else if (Op == "statz")
        deliver(C, Seq, statzRecord(Id));
      else if (Op == "persist")
        deliver(C, Seq, persistRecord(Id));
      else
        deliver(C, Seq,
                engine::makeErrorRecord("irlt-serve", Id,
                                        engine::errkind::Request,
                                        "unknown op '" + Op + "'"));
      return;
    }
    int64_t D = Doc->intOr("deadline_ms", -1);
    if (D >= 0)
      DeadlineMs = static_cast<uint64_t>(D);
  }

  if (Draining.load()) {
    ++Stats.DrainRejects;
    deliver(C, Seq,
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
  deliver(C, Seq,
          engine::makeErrorRecord(
              "irlt-serve", Id, engine::errkind::Overloaded,
              "admission queue full (" + std::to_string(Opts.QueueCapacity) +
                  " pending); retry later"));
}

//===----------------------------------------------------------------------===//
// Reader thread: socket -> FrameReader -> dispatch
//===----------------------------------------------------------------------===//

void Server::Impl::readerLoop(ConnPtr C) {
  FrameReader FR(Opts.MaxFrameBytes);
  char Buf[4096];
  // The short-read fault degrades the transport to one byte per read;
  // the frame parser must produce identical results (it is a pure
  // incremental state machine), which the fault-matrix test pins.
  size_t ReadLen = Opts.Faults.ShortRead ? 1 : sizeof(Buf);

  for (;;) {
    ssize_t N = ::read(C->Fd, Buf, ReadLen);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break; // connection error: drop
    }
    if (N == 0) {
      // EOF. Mid-frame, that is the "truncated frame" case: report it
      // on the (possibly still open) write side, then close.
      if (FR.midFrame()) {
        ++Stats.BadFrames;
        deliver(C, C->NextSeq++,
                engine::makeErrorRecord(
                    "irlt-serve", "-", engine::errkind::BadFrame,
                    "truncated frame: connection closed with " +
                        std::to_string(FR.bufferedBytes()) +
                        " bytes of an incomplete frame"));
      }
      break;
    }
    FR.feed(Buf, static_cast<size_t>(N));
    std::string Payload;
    FrameReader::Status S;
    while ((S = FR.next(Payload)) == FrameReader::Status::Frame) {
      ++Stats.FramesIn;
      uint64_t Seq = C->NextSeq++;
      dispatch(C, Seq, std::move(Payload));
      Payload.clear();
    }
    if (S == FrameReader::Status::Error) {
      // The byte stream cannot be resynchronized after a framing
      // error: one structured reject, then close.
      ++Stats.BadFrames;
      deliver(C, C->NextSeq++,
              engine::makeErrorRecord(
                  "irlt-serve", "-", engine::errkind::BadFrame,
                  std::string("framing error: ") +
                      FrameReader::errorName(FR.error())));
      break;
    }
  }

  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    LiveFds.erase(C->Fd);
  }
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
    deliver(J.C, J.Seq, Record);

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
// Accept loop + drain
//===----------------------------------------------------------------------===//

void Server::Impl::acceptLoop() {
  for (;;) {
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {PipeR, POLLIN, 0}};
    if (::poll(Fds, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Fds[1].revents) {
      Draining.store(true);
      break;
    }
    if (!(Fds[0].revents & POLLIN))
      continue;

    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    setCloexec(Fd);

    // Reap finished readers so MaxConns gates *live* connections.
    for (size_t I = 0; I < Readers.size();) {
      if (Readers[I]->Done.load()) {
        Readers[I]->T.join();
        Readers.erase(Readers.begin() + static_cast<ptrdiff_t>(I));
      } else {
        ++I;
      }
    }

    if (Opts.WriteTimeoutMillis) {
      timeval Tv{};
      Tv.tv_sec = static_cast<time_t>(Opts.WriteTimeoutMillis / 1000);
      Tv.tv_usec =
          static_cast<suseconds_t>((Opts.WriteTimeoutMillis % 1000) * 1000);
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
    }

    if (Readers.size() >= Opts.MaxConns) {
      ++Stats.ConnsRejected;
      writeAll(Fd, encodeFrame(engine::makeErrorRecord(
                       "irlt-serve", "-", engine::errkind::Overloaded,
                       "connection limit reached (" +
                           std::to_string(Opts.MaxConns) + ")")));
      ::close(Fd);
      continue;
    }

    ++Stats.ConnsAccepted;
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      LiveFds.insert(Fd);
    }
    auto Slot = std::make_unique<ReaderSlot>();
    ReaderSlot *Raw = Slot.get();
    Raw->T = std::thread([this, C, Raw]() mutable {
      readerLoop(std::move(C));
      Raw->Done.store(true);
    });
    Readers.push_back(std::move(Slot));
  }

  ::close(ListenFd);
  ListenFd = -1;
}

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

Server::Server(ServeOptions Opts) : M(std::make_unique<Impl>(std::move(Opts))) {}

Server::~Server() {
  // Safety net for a started-but-never-run() server (error paths in the
  // tool): drain so every thread is joined before members are torn down.
  if (M->AcceptThread.joinable()) {
    requestDrain();
    run();
  }
  if (M->PipeR >= 0)
    ::close(M->PipeR);
  if (M->PipeW >= 0)
    ::close(M->PipeW);
  if (M->ListenFd >= 0)
    ::close(M->ListenFd);
  if (!M->Opts.SocketPath.empty())
    ::unlink(M->Opts.SocketPath.c_str());
}

ErrorOr<bool> Server::start() {
  ErrorOr<bool> Bound = M->bindSocket();
  if (!Bound)
    return Bound;

  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return Failure(Diag::error("serve: pipe() failed"));
  M->PipeR = Pipe[0];
  M->PipeW = Pipe[1];
  setCloexec(M->PipeR);
  setCloexec(M->PipeW);

  if (!M->Opts.PersistPath.empty())
    M->Loaded =
        M->Journal.loadAndReplay(M->Opts.PersistPath, M->P, M->Opts.Faults);

  unsigned Jobs = M->Opts.Jobs ? M->Opts.Jobs : 1;
  for (unsigned I = 0; I < Jobs; ++I)
    M->Workers.emplace_back([this] { M->workerLoop(); });
  M->AcceptThread = std::thread([this] { M->acceptLoop(); });
  return true;
}

bool Server::run() {
  M->AcceptThread.join();

  // Drain: wake every blocked reader; buffered complete frames still
  // dispatch ("draining" rejects from here on), then readers exit.
  {
    std::lock_guard<std::mutex> Lock(M->ConnMu);
    for (int Fd : M->LiveFds)
      ::shutdown(Fd, SHUT_RD);
  }
  for (auto &Slot : M->Readers)
    Slot->T.join();
  M->Readers.clear();

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

void Server::requestDrain() {
  // write() is async-signal-safe; this is the whole point of the pipe.
  if (M->PipeW >= 0) {
    char B = 1;
    [[maybe_unused]] ssize_t N = ::write(M->PipeW, &B, 1);
  }
}

int Server::boundPort() const { return M->BoundPort; }
const ServerStats &Server::stats() const { return M->Stats; }
const JournalLoadResult &Server::journalLoad() const { return M->Loaded; }
uint64_t Server::persistedEntries() const { return M->Persisted.load(); }
