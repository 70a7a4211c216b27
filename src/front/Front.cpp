//===- front/Front.cpp - Sharded multi-process serve front ---------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "front/Front.h"

#include "api/Pipeline.h"
#include "engine/Engine.h"
#include "ir/NestHash.h"
#include "serve/Client.h"
#include "support/Json.h"
#include "support/Lru.h"
#include "support/MathUtils.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace irlt;
using namespace irlt::front;

namespace {

using Clock = std::chrono::steady_clock;
using serve::ConnPtr;

/// Route cache bound (nest source -> shard index).
constexpr size_t RouteCacheCapacity = 4096;

std::chrono::milliseconds ms(uint64_t N) {
  return std::chrono::milliseconds(N);
}

/// FNV-1a (64-bit) over raw bytes - the fallback route for requests
/// without a parseable nest. structuralNestHash() is this same function
/// over canonicalNestKey(), so all routing is one hash family.
uint64_t fnv64(std::string_view S) {
  uint64_t H = 1469598103934665603ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

/// One request in flight to a worker. The response reader pops these in
/// FIFO order (the worker answers one connection's frames in order - the
/// serve reorder buffer guarantees it).
struct PendingReq {
  ConnPtr C;
  uint64_t Seq = 0;
  std::string Id;
  Clock::time_point Enqueued;
};

/// One worker shard. Mu guards the routing/lifecycle state; OpsMu
/// guards the ops connection (probes and inline-op fan-out). Lock
/// order: OpsMu may be taken alone, Mu may be taken alone, but never
/// Mu -> OpsMu (markDown runs under Mu and must not touch Ops).
struct Shard {
  unsigned Index = 0;
  std::string SockPath;
  std::string PersistPath;

  std::mutex Mu;
  pid_t Pid = -1;
  int OutFd = -1; ///< worker stdout pipe read end (supervisor-owned)
  bool Up = false;
  bool Starting = false; ///< spawned, awaiting its first healthy probe
  Clock::time_point StartDeadline{};
  /// Bumps on every markDown; a response reader that observes a stale
  /// generation exits instead of touching the new incarnation's window.
  uint64_t Generation = 0;
  unsigned ConsecFailures = 0;
  bool RestartPending = false;
  Clock::time_point RestartAt{};
  Clock::time_point LastProbe{};
  /// Request connection. Written under Mu; shut down (not closed) on
  /// markDown - the response reader owns the close, so the fd number
  /// cannot be reused while a read is still blocked on it.
  int DataFd = -1;
  std::deque<PendingReq> Pending;

  std::thread RespReader; ///< start/supervisor/drain threads only

  std::mutex OpsMu;
  serve::ClientConn Ops;

  std::atomic<uint64_t> Served{0};
  std::atomic<uint64_t> RestartCount{0};
  std::string StdoutBuf; ///< supervisor/drain threads only
};

} // namespace

//===----------------------------------------------------------------------===//
// Impl
//===----------------------------------------------------------------------===//

struct Front::Impl {
  FrontOptions Opts;
  FrontStats Stats;
  FrontDrainSummary Summary;

  /// Nest parsing for routing only. Its caches are disabled: the route
  /// cache below already bounds repeat parses, and the workers own the
  /// real memoization caches.
  api::Pipeline RouteP;
  std::mutex RouteMu;
  LruMap<unsigned> RouteCache;

  std::atomic<bool> StopSupervisor{false};
  std::thread SupervisorThread;

  std::vector<std::unique_ptr<Shard>> Shards;

  /// The client side; its reader threads call dispatch().
  serve::Listener L;

  explicit Impl(FrontOptions O)
      : Opts(std::move(O)), RouteP(api::PipelineOptions{false, {}, 0}),
        RouteCache(RouteCacheCapacity),
        L(Opts.Serve.listener("front"), Stats,
          [this](const ConnPtr &C, uint64_t Seq, std::string Payload) {
            dispatch(C, Seq, std::move(Payload));
          }) {}

  // Lifecycle.
  ErrorOr<bool> startImpl();
  void cleanupFailedStart();
  std::vector<std::string> workerArgs(const Shard &S) const;
  bool spawnWorker(Shard &S);
  bool tryAdopt(Shard &S);

  // Data path.
  void dispatch(const ConnPtr &C, uint64_t Seq, std::string Payload);
  unsigned routeShard(const std::string &NestSrc, const std::string &Payload);
  int submit(Shard &S, const ConnPtr &C, uint64_t Seq, uint64_t LineNo,
             const std::string &Id, const std::string &Payload);
  void respReaderLoop(Shard &S, uint64_t Gen, int Fd);

  // Failure handling.
  std::deque<PendingReq> markDownLocked(Shard &S);
  void markDown(Shard &S, uint64_t Gen);
  void flushOrphans(Shard &S, std::deque<PendingReq> &Orphans);
  uint64_t backoffMillis(unsigned Failures) const;

  // Supervision.
  void superviseLoop();
  void superviseShard(Shard &S, Clock::time_point Now);
  void drainWorkerStdout(Shard &S);

  // Inline ops.
  ErrorOr<std::string> opsCall(Shard &S, const std::string &Payload,
                               uint64_t TimeoutMillis);
  std::string healthzRecord(const std::string &Id);
  std::string statzRecord(const std::string &Id);
  std::string persistRecord(const std::string &Id);

  // Drain.
  /// Fails the shard, reclaims its response reader and ops connection,
  /// and stops its worker: \p Sig, then SIGKILL if it is still running
  /// after \p GraceTicks 100 ms ticks. \returns the worker's wait status
  /// (none when no worker was running).
  std::optional<int> stopShard(Shard &S, int Sig, int GraceTicks);
  void shutdownShard(Shard &S);
};

//===----------------------------------------------------------------------===//
// Worker lifecycle: spawn, adopt, fail, back off, respawn
//===----------------------------------------------------------------------===//

std::vector<std::string> Front::Impl::workerArgs(const Shard &S) const {
  serve::ServeOptions W = Opts.Serve;
  W.SocketPath = S.SockPath;
  W.TcpPort = -1;
  W.PersistPath = S.PersistPath;
  W.MaxConns = serve::ServeOptions().MaxConns;
  // The forwarding envelope escapes the payload into a JSON string,
  // which can double it; workers get headroom so forwarding never
  // shrinks the client-visible frame budget.
  W.MaxFrameBytes = 2 * Opts.Serve.MaxFrameBytes + 4096;
  std::vector<std::string> A = serve::renderServeArgs(W);
  A.insert(A.begin(), Opts.ServeBinary);
  return A;
}

bool Front::Impl::spawnWorker(Shard &S) {
  // Argv is fully materialized before the fork: the front is
  // multithreaded, so the child must not allocate between fork and exec.
  std::vector<std::string> Args = workerArgs(S);
  std::vector<char *> Argv;
  Argv.reserve(Args.size() + 1);
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  // Both ends close-on-exec, so no other worker inherits them; the
  // child's dup2 onto stdout clears the flag on the copy it keeps.
  int Out[2];
  if (::pipe2(Out, O_CLOEXEC) != 0)
    return false;

  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Out[0]);
    ::close(Out[1]);
    return false;
  }
  if (Pid == 0) {
    ::dup2(Out[1], STDOUT_FILENO);
    ::close(Out[1]);
    ::execv(Argv[0], Argv.data());
    _exit(127);
  }
  ::close(Out[1]);
  int Flags = ::fcntl(Out[0], F_GETFL);
  if (Flags >= 0)
    ::fcntl(Out[0], F_SETFL, Flags | O_NONBLOCK);

  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Pid = Pid;
  S.OutFd = Out[0];
  S.Starting = true;
  S.RestartPending = false;
  S.StartDeadline = Clock::now() + ms(Opts.StartupTimeoutMillis);
  return true;
}

/// One adoption attempt against a starting worker: connect, require a
/// healthz answer, wire the data connection and a fresh response
/// reader, open the ops connection. Cheap to call repeatedly while the
/// worker binds (worker-slow-start exercises exactly that).
bool Front::Impl::tryAdopt(Shard &S) {
  // The previous generation's response reader has exited by now (its
  // socket was shut down when the shard went down); reclaim it outside
  // any lock so its final stale-generation markDown can complete.
  if (S.RespReader.joinable())
    S.RespReader.join();

  ErrorOr<serve::ClientConn> Data = serve::connectUnix(S.SockPath);
  if (!Data)
    return false;
  ErrorOr<std::string> Health = Data->call("{\"op\":\"healthz\"}", 1000);
  if (!Health)
    return false;
  ErrorOr<serve::ClientConn> Ops = serve::connectUnix(S.SockPath);
  if (!Ops)
    return false;

  // The healthz call above left SO_RCVTIMEO armed. The response reader
  // must block indefinitely - slow requests keep the socket idle for
  // longer than any probe timeout, and the pending-age watchdog (not a
  // socket timeout) is what detects wedged workers - so clear it.
  int DataFd = Data->release();
  serve::setSocketTimeout(DataFd, SO_RCVTIMEO, 0);
  serve::setSocketTimeout(DataFd, SO_SNDTIMEO,
                          Opts.Serve.WriteTimeoutMillis);

  uint64_t Gen;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.DataFd = DataFd;
    S.Up = true;
    S.Starting = false;
    S.RestartPending = false;
    S.ConsecFailures = 0;
    S.LastProbe = Clock::now();
    Gen = S.Generation;
  }
  {
    std::lock_guard<std::mutex> Lock(S.OpsMu);
    S.Ops = std::move(*Ops);
  }
  Shard *SP = &S;
  S.RespReader =
      std::thread([this, SP, Gen, DataFd] { respReaderLoop(*SP, Gen, DataFd); });
  return true;
}

uint64_t Front::Impl::backoffMillis(unsigned Failures) const {
  uint64_t Base = Opts.RestartBackoffMillis ? Opts.RestartBackoffMillis : 1;
  unsigned Shift = Failures < 10 ? Failures : 10;
  uint64_t B = Base << Shift;
  uint64_t Cap = Opts.RestartBackoffMaxMillis ? Opts.RestartBackoffMaxMillis
                                              : Base;
  return B < Cap ? B : Cap;
}

std::deque<PendingReq> Front::Impl::markDownLocked(Shard &S) {
  std::deque<PendingReq> Orphans;
  S.Up = false;
  S.Starting = false;
  ++S.Generation;
  Orphans.swap(S.Pending);
  if (S.DataFd >= 0) {
    // Shut down, never close: the response reader may still be blocked
    // in read() on this fd; it observes the shutdown (or the stale
    // generation) and is the one that closes it.
    ::shutdown(S.DataFd, SHUT_RDWR);
    S.DataFd = -1;
  }
  S.RestartPending = true;
  S.RestartAt = Clock::now() + ms(backoffMillis(S.ConsecFailures));
  ++S.ConsecFailures;
  return Orphans;
}

void Front::Impl::markDown(Shard &S, uint64_t Gen) {
  std::deque<PendingReq> Orphans;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (!S.Up || S.Generation != Gen)
      return; // someone else already failed this incarnation
    Orphans = markDownLocked(S);
  }
  flushOrphans(S, Orphans);
}

/// Every request that was in flight to a dead shard gets a structured,
/// retryable answer - never a hang, never a torn frame.
void Front::Impl::flushOrphans(Shard &S, std::deque<PendingReq> &Orphans) {
  for (PendingReq &P : Orphans) {
    ++Stats.ShardDownRejects;
    L.deliver(P.C, P.Seq,
              engine::makeErrorRecord(
                  "irlt-front", P.Id, engine::errkind::ShardDown,
                  "shard " + std::to_string(S.Index) +
                      " worker died with the request in flight; retry"));
  }
}

//===----------------------------------------------------------------------===//
// Shard data path: submit + response reader
//===----------------------------------------------------------------------===//

/// 0 = accepted, 1 = window full, 2 = shard down.
int Front::Impl::submit(Shard &S, const ConnPtr &C, uint64_t Seq,
                        uint64_t LineNo, const std::string &Id,
                        const std::string &Payload) {
  json::JsonWriter W;
  W.beginObject();
  W.field("op", "fwd");
  W.field("line_no", LineNo);
  W.field("req", Payload);
  W.endObject();
  std::string Frame = serve::encodeFrame(W.str());

  std::deque<PendingReq> Orphans;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (!S.Up)
      return 2;
    if (S.Pending.size() >= Opts.WindowCapacity)
      return 1;
    PendingReq P;
    P.C = C;
    P.Seq = Seq;
    P.Id = Id;
    P.Enqueued = Clock::now();
    S.Pending.push_back(std::move(P));
    // Enqueue-then-write under the lock: the FIFO entry must be visible
    // before any response byte for it can arrive at the reader.
    if (serve::writeAll(S.DataFd, Frame))
      return 0;
    // Write failure: the worker end is gone, or wedged past
    // SO_SNDTIMEO. Fail the shard; the caller reports this request,
    // the orphans are everything else that was in flight.
    S.Pending.pop_back();
    Orphans = markDownLocked(S);
  }
  flushOrphans(S, Orphans);
  return 2;
}

void Front::Impl::respReaderLoop(Shard &S, uint64_t Gen, int Fd) {
  serve::FrameReader FR(2 * Opts.Serve.MaxFrameBytes + 4096);
  char Buf[65536];
  bool Fail = false;
  bool Stale = false;
  for (;;) {
    std::string Payload;
    serve::FrameReader::Status St = serve::FrameReader::Status::NeedMore;
    while (!Fail && !Stale &&
           (St = FR.next(Payload)) == serve::FrameReader::Status::Frame) {
      PendingReq P;
      {
        std::lock_guard<std::mutex> Lock(S.Mu);
        if (S.Generation != Gen) {
          Stale = true;
          break;
        }
        if (S.Pending.empty()) {
          // A response with no request outstanding: protocol violation.
          // Fail the shard rather than guess an owner.
          Fail = true;
          break;
        }
        P = std::move(S.Pending.front());
        S.Pending.pop_front();
      }
      ++S.Served;
      ++Stats.Served;
      L.deliver(P.C, P.Seq, Payload);
      Payload.clear();
    }
    if (Fail || Stale || St == serve::FrameReader::Status::Error)
      break;
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      // EAGAIN means a stray SO_RCVTIMEO fired, not that the worker
      // died; hang detection belongs to the pending-age watchdog.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      break;
    }
    if (N == 0)
      break; // EOF: the worker died (or markDown shut the socket down)
    FR.feed(Buf, static_cast<size_t>(N));
  }
  // A no-op when the supervisor failed this generation first.
  markDown(S, Gen);
  ::close(Fd);
}

//===----------------------------------------------------------------------===//
// Routing
//===----------------------------------------------------------------------===//

unsigned Front::Impl::routeShard(const std::string &NestSrc,
                                 const std::string &Payload) {
  unsigned N = static_cast<unsigned>(Shards.size());
  if (N <= 1)
    return 0;
  if (NestSrc.empty())
    return static_cast<unsigned>(fnv64(Payload) % N);

  std::lock_guard<std::mutex> Lock(RouteMu);
  if (std::shared_ptr<const unsigned> Hit = RouteCache.lookup(NestSrc))
    return *Hit;
  unsigned Idx;
  {
    // Adversarial nests can saturate the bounds math; the guard makes
    // that a deterministic route instead of UB, and an unparseable nest
    // routes by its source hash - any shard renders the identical
    // structured error, so correctness never depends on the parse.
    OverflowGuard Guard;
    ErrorOr<LoopNest> Nest = RouteP.loadNest(NestSrc);
    Idx = static_cast<unsigned>(
        (Nest ? structuralNestHash(*Nest) : fnv64(NestSrc)) % N);
  }
  RouteCache.insert(NestSrc, std::make_shared<unsigned>(Idx));
  return Idx;
}

//===----------------------------------------------------------------------===//
// Dispatch (client reader thread)
//===----------------------------------------------------------------------===//

void Front::Impl::dispatch(const ConnPtr &C, uint64_t Seq,
                           std::string Payload) {
  uint64_t LineNo = Seq + 1;
  std::string Id = std::to_string(LineNo);
  std::string NestSrc;

  // One shallow parse. Only the aggregate ops are answered here;
  // everything else - unknown ops and unparseable requests included -
  // is forwarded, so the worker renders the exact record a direct
  // irlt-serve would and the byte-identity contract holds.
  ErrorOr<json::JsonValue> Doc = json::JsonValue::parse(Payload);
  if (Doc && Doc->isObject()) {
    Id = Doc->stringOr("id", Id);
    std::string Op = Doc->stringOr("op");
    if (Op == "healthz" || Op == "statz" || Op == "persist") {
      ++Stats.InlineOps;
      if (Op == "healthz")
        L.deliver(C, Seq, healthzRecord(Id));
      else if (Op == "statz")
        L.deliver(C, Seq, statzRecord(Id));
      else
        L.deliver(C, Seq, persistRecord(Id));
      return;
    }
    NestSrc = Doc->stringOr("nest");
  }

  if (L.draining()) {
    ++Stats.DrainRejects;
    L.deliver(C, Seq,
              engine::makeErrorRecord("irlt-front", Id,
                                      engine::errkind::Draining,
                                      "front is draining; request rejected"));
    return;
  }

  unsigned Idx = routeShard(NestSrc, Payload);
  ++Stats.Routed;
  int R = submit(*Shards[Idx], C, Seq, LineNo, Id, Payload);
  if (R == 0)
    return;
  if (R == 1) {
    ++Stats.WindowShed;
    L.deliver(C, Seq,
              engine::makeErrorRecord(
                  "irlt-front", Id, engine::errkind::Overloaded,
                  "shard " + std::to_string(Idx) + " window full (" +
                      std::to_string(Opts.WindowCapacity) +
                      " outstanding); retry later"));
    return;
  }
  ++Stats.ShardDownRejects;
  L.deliver(C, Seq,
            engine::makeErrorRecord(
                "irlt-front", Id, engine::errkind::ShardDown,
                "shard " + std::to_string(Idx) +
                    " is down (worker restarting); retry"));
}

//===----------------------------------------------------------------------===//
// Supervision
//===----------------------------------------------------------------------===//

void Front::Impl::drainWorkerStdout(Shard &S) {
  int Fd;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Fd = S.OutFd;
  }
  if (Fd < 0)
    return;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N > 0) {
      S.StdoutBuf.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    break; // EOF, or EAGAIN on the nonblocking pipe
  }
}

void Front::Impl::superviseShard(Shard &S, Clock::time_point Now) {
  pid_t Pid;
  bool Up, Starting, RestartPending;
  uint64_t Gen;
  Clock::time_point RestartAt, StartDeadline, LastProbe;
  bool HavePending = false;
  Clock::time_point Oldest{};
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Pid = S.Pid;
    Up = S.Up;
    Starting = S.Starting;
    RestartPending = S.RestartPending;
    Gen = S.Generation;
    RestartAt = S.RestartAt;
    StartDeadline = S.StartDeadline;
    LastProbe = S.LastProbe;
    if (!S.Pending.empty()) {
      HavePending = true;
      Oldest = S.Pending.front().Enqueued;
    }
  }

  // 1. Reap: a worker exit is the strongest down signal.
  if (Pid > 0) {
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      drainWorkerStdout(S);
      {
        std::lock_guard<std::mutex> Lock(S.Mu);
        S.Pid = -1;
        if (S.OutFd >= 0) {
          ::close(S.OutFd);
          S.OutFd = -1;
        }
      }
      if (Up) {
        markDown(S, Gen);
      } else {
        // Died while starting (exec failure, startup crash): schedule
        // the next attempt with backoff.
        std::lock_guard<std::mutex> Lock(S.Mu);
        S.Starting = false;
        S.RestartPending = true;
        S.RestartAt = Now + ms(backoffMillis(S.ConsecFailures));
        ++S.ConsecFailures;
      }
      return;
    }
  }

  if (Up) {
    // 2. Hang watchdog. A wedged worker *thread* still answers probes
    // (the serve reader thread answers them inline), so liveness of the
    // oldest in-flight request is the signal that catches real hangs.
    if (Opts.PendingTimeoutMillis && HavePending &&
        Now - Oldest >= ms(Opts.PendingTimeoutMillis)) {
      ++Stats.HangKills;
      if (Pid > 0)
        ::kill(Pid, SIGKILL);
      markDown(S, Gen);
      return;
    }
    // 3. Health probe on the dedicated ops connection.
    if (Opts.ProbeIntervalMillis &&
        Now - LastProbe >= ms(Opts.ProbeIntervalMillis)) {
      {
        std::lock_guard<std::mutex> Lock(S.Mu);
        S.LastProbe = Now;
      }
      bool Ok = false;
      ErrorOr<std::string> R =
          opsCall(S, "{\"op\":\"healthz\"}", Opts.ProbeTimeoutMillis);
      if (R) {
        ErrorOr<json::JsonValue> D = json::JsonValue::parse(*R);
        Ok = D && D->isObject() && D->boolOr("ok", false);
      }
      if (!Ok) {
        ++Stats.ProbeFailures;
        if (Pid > 0)
          ::kill(Pid, SIGKILL);
        markDown(S, Gen);
      }
    }
    return;
  }

  if (L.draining())
    return; // no restarts while the front is shutting down

  // 4. A starting worker: poll for its first healthy probe.
  if (Starting) {
    if (tryAdopt(S))
      return;
    if (Now >= StartDeadline) {
      if (Pid > 0)
        ::kill(Pid, SIGKILL); // reaped by step 1 next tick
      std::lock_guard<std::mutex> Lock(S.Mu);
      S.Starting = false;
      S.RestartPending = true;
      S.RestartAt = Now + ms(backoffMillis(S.ConsecFailures));
      ++S.ConsecFailures;
    }
    return;
  }

  // 5. A down shard whose worker process is still alive: the data path
  // failed without the process dying (write failure, protocol
  // violation, torn stream). That incarnation is unreachable either
  // way, so kill the orphan; step 1 reaps it next tick and the respawn
  // below then proceeds. Without this the Pid < 0 guard would wedge the
  // shard forever.
  if (RestartPending && Pid > 0) {
    ::kill(Pid, SIGKILL);
    return;
  }

  // 6. Backoff elapsed: respawn (warm - the worker replays its journal).
  if (RestartPending && Pid < 0 && Now >= RestartAt) {
    ++Stats.Restarts;
    ++S.RestartCount;
    if (!spawnWorker(S)) {
      std::lock_guard<std::mutex> Lock(S.Mu);
      S.RestartAt = Now + ms(backoffMillis(S.ConsecFailures));
      ++S.ConsecFailures;
    }
  }
}

void Front::Impl::superviseLoop() {
  while (!StopSupervisor.load()) {
    std::this_thread::sleep_for(ms(20));
    Clock::time_point Now = Clock::now();
    for (auto &SP : Shards)
      superviseShard(*SP, Now);
  }
}

//===----------------------------------------------------------------------===//
// Inline ops: per-shard fan-out, one aggregated record
//===----------------------------------------------------------------------===//

ErrorOr<std::string> Front::Impl::opsCall(Shard &S, const std::string &Payload,
                                          uint64_t TimeoutMillis) {
  std::lock_guard<std::mutex> Lock(S.OpsMu);
  if (!S.Ops.valid()) {
    ErrorOr<serve::ClientConn> C = serve::connectUnix(S.SockPath);
    if (!C)
      return Failure(Diag::error("front: shard " + std::to_string(S.Index) +
                                 " unreachable: " + C.message()));
    S.Ops = std::move(*C);
  }
  ErrorOr<std::string> R = S.Ops.call(Payload, TimeoutMillis);
  if (!R)
    S.Ops = serve::ClientConn(); // poisoned: a late response would desync
  return R;
}

std::string Front::Impl::healthzRecord(const std::string &Id) {
  uint64_t UpCount = 0;
  std::vector<char> Up(Shards.size(), 0);
  for (size_t I = 0; I < Shards.size(); ++I) {
    // A restarted worker answers its socket before the supervisor adopts
    // it; until then the shard still rejects requests, so it is not up.
    {
      std::lock_guard<std::mutex> Lock(Shards[I]->Mu);
      if (!Shards[I]->Up)
        continue;
    }
    ErrorOr<std::string> R =
        opsCall(*Shards[I], "{\"op\":\"healthz\"}", Opts.ProbeTimeoutMillis);
    if (R) {
      ErrorOr<json::JsonValue> D = json::JsonValue::parse(*R);
      if (D && D->isObject() && D->boolOr("ok", false)) {
        Up[I] = 1;
        ++UpCount;
      }
    }
  }
  json::JsonWriter W;
  json::beginToolRecord(W, "irlt-front");
  W.field("record", "healthz");
  W.field("id", Id);
  W.field("ok", UpCount == Shards.size() && !L.draining());
  W.field("draining", L.draining());
  W.field("shards", static_cast<uint64_t>(Shards.size()));
  W.field("shards_up", UpCount);
  W.key("shard_status").beginArray();
  for (size_t I = 0; I < Shards.size(); ++I) {
    W.beginObject();
    W.field("shard", static_cast<uint64_t>(I));
    W.field("up", Up[I] != 0);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

std::string Front::Impl::statzRecord(const std::string &Id) {
  struct Peek {
    bool Up = false;
    pid_t Pid = -1;
    uint64_t Restarts = 0;
    uint64_t PendingCount = 0;
    uint64_t Served = 0;
    bool WorkerReachable = false;
    uint64_t WorkerServed = 0;
    uint64_t WorkerErrors = 0;
    uint64_t WorkerQueueDepth = 0;
    uint64_t WorkerJournalEntries = 0;
  };
  std::vector<Peek> Peeks(Shards.size());
  for (size_t I = 0; I < Shards.size(); ++I) {
    Shard &S = *Shards[I];
    Peek &P = Peeks[I];
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      P.Up = S.Up;
      P.Pid = S.Pid;
      P.PendingCount = S.Pending.size();
    }
    P.Restarts = S.RestartCount.load();
    P.Served = S.Served.load();
    // The workers' own counters cannot be embedded verbatim (JsonWriter
    // has no raw splice), so the interesting fields are re-emitted.
    ErrorOr<std::string> R =
        opsCall(S, "{\"op\":\"statz\"}", Opts.ProbeTimeoutMillis);
    if (R) {
      ErrorOr<json::JsonValue> D = json::JsonValue::parse(*R);
      if (D && D->isObject()) {
        P.WorkerReachable = true;
        P.WorkerQueueDepth = static_cast<uint64_t>(D->intOr("queue_depth", 0));
        if (const json::JsonValue *Ctr = D->find("counters")) {
          P.WorkerServed = static_cast<uint64_t>(Ctr->intOr("served", 0));
          P.WorkerErrors = static_cast<uint64_t>(Ctr->intOr("errors", 0));
        }
        if (const json::JsonValue *J = D->find("journal"))
          P.WorkerJournalEntries =
              static_cast<uint64_t>(J->intOr("entries", 0));
      }
    }
  }
  uint64_t UpCount = 0;
  for (const Peek &P : Peeks)
    if (P.Up)
      ++UpCount;

  json::JsonWriter W;
  json::beginToolRecord(W, "irlt-front");
  W.field("record", "statz");
  W.field("id", Id);
  W.field("ok", true);
  W.field("draining", L.draining());
  W.field("shards", static_cast<uint64_t>(Shards.size()));
  W.field("shards_up", UpCount);
  W.key("counters").beginObject();
  W.field("conns_accepted", Stats.ConnsAccepted.load());
  W.field("conns_rejected", Stats.ConnsRejected.load());
  W.field("frames_in", Stats.FramesIn.load());
  W.field("inline_ops", Stats.InlineOps.load());
  W.field("routed", Stats.Routed.load());
  W.field("window_shed", Stats.WindowShed.load());
  W.field("drain_rejects", Stats.DrainRejects.load());
  W.field("shard_down_rejects", Stats.ShardDownRejects.load());
  W.field("served", Stats.Served.load());
  W.field("bad_frames", Stats.BadFrames.load());
  W.field("write_failures", Stats.WriteFailures.load());
  W.field("restarts", Stats.Restarts.load());
  W.field("probe_failures", Stats.ProbeFailures.load());
  W.field("hang_kills", Stats.HangKills.load());
  W.endObject();
  W.key("shard_status").beginArray();
  for (size_t I = 0; I < Peeks.size(); ++I) {
    const Peek &P = Peeks[I];
    W.beginObject();
    W.field("shard", static_cast<uint64_t>(I));
    W.field("up", P.Up);
    W.field("pid", static_cast<int64_t>(P.Pid));
    W.field("restarts", P.Restarts);
    W.field("pending", P.PendingCount);
    W.field("window_capacity", static_cast<uint64_t>(Opts.WindowCapacity));
    W.field("served", P.Served);
    W.key("worker").beginObject();
    W.field("reachable", P.WorkerReachable);
    W.field("served", P.WorkerServed);
    W.field("errors", P.WorkerErrors);
    W.field("queue_depth", P.WorkerQueueDepth);
    W.field("journal_entries", P.WorkerJournalEntries);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

std::string Front::Impl::persistRecord(const std::string &Id) {
  if (Opts.Serve.PersistPath.empty())
    return engine::makeErrorRecord(
        "irlt-front", Id, engine::errkind::Request,
        "persist: persistence is disabled (front started without --persist)");
  uint64_t Entries = 0, Failed = 0;
  for (auto &SP : Shards) {
    // A journal dump can outlast a health probe; give it extra room.
    ErrorOr<std::string> R = opsCall(*SP, "{\"op\":\"persist\"}",
                                     Opts.ProbeTimeoutMillis * 5);
    bool Ok = false;
    if (R) {
      ErrorOr<json::JsonValue> D = json::JsonValue::parse(*R);
      if (D && D->isObject() && D->boolOr("ok", false)) {
        Ok = true;
        Entries += static_cast<uint64_t>(D->intOr("entries", 0));
      }
    }
    if (!Ok)
      ++Failed;
  }
  json::JsonWriter W;
  json::beginToolRecord(W, "irlt-front");
  W.field("record", "persist");
  W.field("id", Id);
  W.field("ok", Failed == 0);
  W.field("shards", static_cast<uint64_t>(Shards.size()));
  W.field("entries", Entries);
  W.field("failed_shards", Failed);
  W.endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// Startup / shutdown
//===----------------------------------------------------------------------===//

void Front::Impl::cleanupFailedStart() {
  for (auto &SP : Shards)
    stopShard(*SP, SIGKILL, 0);
  Shards.clear();
}

ErrorOr<bool> Front::Impl::startImpl() {
  if (Opts.Shards < 1)
    return Failure(Diag::error("front: --shards must be >= 1"));
  if (Opts.ServeBinary.empty())
    return Failure(
        Diag::error("front: need the worker binary path (--serve-bin)"));
  if (::access(Opts.ServeBinary.c_str(), X_OK) != 0)
    return Failure(Diag::error("front: worker binary '" + Opts.ServeBinary +
                               "' is not executable: " +
                               std::strerror(errno)));

  std::string Base = Opts.ShardPathBase;
  if (Base.empty())
    Base = !Opts.Serve.SocketPath.empty()
               ? Opts.Serve.SocketPath
               : "/tmp/irlt-front." + std::to_string(::getpid());
  for (unsigned I = 0; I < Opts.Shards; ++I) {
    auto S = std::make_unique<Shard>();
    S->Index = I;
    S->SockPath = Base + ".w" + std::to_string(I);
    if (!Opts.Serve.PersistPath.empty())
      S->PersistPath = Opts.Serve.PersistPath + ".shard" + std::to_string(I);
    Shards.push_back(std::move(S));
  }

  ErrorOr<bool> Bound = L.open();
  if (!Bound) {
    cleanupFailedStart();
    return Bound;
  }

  // Spawn every worker first, then wait for each: they boot
  // concurrently, so startup is bounded by the slowest worker, not the
  // sum (worker-slow-start pins this).
  for (auto &SP : Shards) {
    if (!spawnWorker(*SP)) {
      cleanupFailedStart();
      return Failure(Diag::error("front: cannot spawn worker for shard " +
                                 std::to_string(SP->Index)));
    }
  }
  for (auto &SP : Shards) {
    Shard &S = *SP;
    bool Healthy = false;
    bool Died = false;
    Clock::time_point Deadline = Clock::now() + ms(Opts.StartupTimeoutMillis);
    while (Clock::now() < Deadline && !Died) {
      if (tryAdopt(S)) {
        Healthy = true;
        break;
      }
      pid_t Pid;
      {
        std::lock_guard<std::mutex> Lock(S.Mu);
        Pid = S.Pid;
      }
      int Status = 0;
      if (Pid > 0 && ::waitpid(Pid, &Status, WNOHANG) == Pid) {
        std::lock_guard<std::mutex> Lock(S.Mu);
        S.Pid = -1;
        Died = true; // fail fast: exec failure or startup crash
      }
      if (!Died)
        std::this_thread::sleep_for(ms(20));
    }
    if (!Healthy) {
      cleanupFailedStart();
      return Failure(Diag::error(
          "front: shard " + std::to_string(S.Index) + " worker ('" +
          Opts.ServeBinary + "') did not become healthy within " +
          std::to_string(Opts.StartupTimeoutMillis) + " ms"));
    }
  }

  SupervisorThread = std::thread([this] { superviseLoop(); });
  L.start();
  return true;
}

std::optional<int> Front::Impl::stopShard(Shard &S, int Sig,
                                          int GraceTicks) {
  uint64_t Gen;
  pid_t Pid;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Gen = S.Generation;
    Pid = S.Pid;
  }
  markDown(S, Gen); // pending is empty by now; fail safe if not
  if (S.RespReader.joinable())
    S.RespReader.join();
  {
    std::lock_guard<std::mutex> Lock(S.OpsMu);
    S.Ops = serve::ClientConn();
  }

  std::optional<int> Status;
  if (Pid > 0) {
    int St = 0;
    ::kill(Pid, Sig);
    for (int I = 0; I < GraceTicks && !Status; ++I) {
      if (::waitpid(Pid, &St, WNOHANG) == Pid) {
        Status = St;
      } else {
        drainWorkerStdout(S); // keep the pipe from filling mid-drain
        std::this_thread::sleep_for(ms(100));
      }
    }
    if (!Status) {
      ::kill(Pid, SIGKILL); // a harmless repeat when Sig is SIGKILL
      ::waitpid(Pid, &St, 0);
      Status = St;
    }
  }

  drainWorkerStdout(S);
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Pid = -1;
  if (S.OutFd >= 0) {
    ::close(S.OutFd);
    S.OutFd = -1;
  }
  return Status;
}

void Front::Impl::shutdownShard(Shard &S) {
  // SIGTERM: the worker drains and persists its journal.
  std::optional<int> Status = stopShard(S, SIGTERM, 150);
  ++Summary.ShardCount;
  if (Status && WIFEXITED(*Status) && WEXITSTATUS(*Status) == 0)
    ++Summary.CleanExits;

  // The worker's stdout is ndjson; the last "drained" record carries
  // its final counters and journal-dump size (earlier generations may
  // have printed their own on clean exits - the last one is this
  // incarnation's).
  std::string LastDrained;
  size_t Start = 0;
  while (Start <= S.StdoutBuf.size()) {
    size_t End = S.StdoutBuf.find('\n', Start);
    size_t Len = (End == std::string::npos ? S.StdoutBuf.size() : End) - Start;
    std::string Line = S.StdoutBuf.substr(Start, Len);
    if (!Line.empty()) {
      ErrorOr<json::JsonValue> D = json::JsonValue::parse(Line);
      if (D && D->isObject() && D->stringOr("record") == "drained")
        LastDrained = Line;
    }
    if (End == std::string::npos)
      break;
    Start = End + 1;
  }
  if (!LastDrained.empty()) {
    ErrorOr<json::JsonValue> D = json::JsonValue::parse(LastDrained);
    Summary.WorkerServed += static_cast<uint64_t>(D->intOr("served", 0));
    Summary.WorkerShed += static_cast<uint64_t>(D->intOr("shed", 0));
    Summary.WorkerErrors += static_cast<uint64_t>(D->intOr("errors", 0));
    Summary.WorkerBadFrames +=
        static_cast<uint64_t>(D->intOr("bad_frames", 0));
    Summary.WorkerWriteFailures +=
        static_cast<uint64_t>(D->intOr("write_failures", 0));
    Summary.PersistedEntries +=
        static_cast<uint64_t>(D->intOr("persisted_entries", 0));
  }
}

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

Front::Front(FrontOptions Opts) : M(std::make_unique<Impl>(std::move(Opts))) {}

Front::~Front() {
  // Safety net for a started-but-never-run() front: drain so every
  // thread and worker is reclaimed before members are torn down.
  if (M->L.started()) {
    requestDrain();
    run();
  }
}

ErrorOr<bool> Front::start() { return M->startImpl(); }

bool Front::run() {
  Impl &I = *M;
  // Drain, phase 1: stop accepting and join every client reader
  // (buffered complete frames still dispatch, as "draining" rejects).
  I.L.drain();

  // Phase 2: every routed request resolves. The supervisor stays up so
  // a worker that dies or wedges mid-drain still fails structured
  // (markDown / the pending-age watchdog) instead of stalling forever.
  for (;;) {
    bool AnyPending = false;
    for (auto &SP : I.Shards) {
      std::lock_guard<std::mutex> Lock(SP->Mu);
      if (!SP->Pending.empty()) {
        AnyPending = true;
        break;
      }
    }
    if (!AnyPending)
      break;
    std::this_thread::sleep_for(ms(10));
  }

  I.StopSupervisor.store(true);
  if (I.SupervisorThread.joinable())
    I.SupervisorThread.join();

  // Phase 3: SIGTERM every worker (each drains and persists its own
  // journal), reap, and aggregate their drained records.
  for (auto &SP : I.Shards)
    I.shutdownShard(*SP);

  return I.Stats.WriteFailures.load() == 0;
}

void Front::requestDrain() { M->L.requestDrain(); }

int Front::boundPort() const { return M->L.boundPort(); }

unsigned Front::shardCount() const {
  return static_cast<unsigned>(M->Shards.size());
}

std::vector<pid_t> Front::shardPids() const {
  std::vector<pid_t> P;
  P.reserve(M->Shards.size());
  for (auto &SP : M->Shards) {
    std::lock_guard<std::mutex> Lock(SP->Mu);
    P.push_back(SP->Up ? SP->Pid : -1);
  }
  return P;
}

const FrontStats &Front::stats() const { return M->Stats; }

const FrontDrainSummary &Front::drainSummary() const { return M->Summary; }
