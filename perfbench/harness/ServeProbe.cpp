//===- perfbench/harness/ServeProbe.cpp - The serve and front layers ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
//
// The serve-stack probe of warm-script's traced run: one client process
// sends a few seconds of a seeded open-loop stream (evenly spaced at a
// fixed rate; mostly warm scripts, some cold ones, a few cheap searches
// with a deadline) to an irlt-front with 2 shards of 1 worker each, over
// nproc pipelined connections, then times single requests through an
// in-process serve::Server and through the front. Sampled served records
// are checked against an in-process cache-off recomputation.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "api/Pipeline.h"
#include "engine/Engine.h"
#include "fuzz/Rng.h"
#include "legality/IncrementalEngine.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Json.h"

#include <condition_variable>
#include <csignal>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace irlt;

namespace perfbench {

namespace {

/// Offered load: about half of what the 2-shard front sustains on this
/// mix without shedding (about 1300/s on a 4-CPU x86-64 machine).
constexpr double RatePerSec = 600;
constexpr unsigned Shards = 2;
constexpr uint64_t RecvTimeoutMs = 60000;
constexpr unsigned RefereeRequests = 48;
/// Length of the open-loop stream.
constexpr double ProbeSeconds = 3;
/// Sequential requests timed per path by the hop probes.
constexpr unsigned HopProbes = 200;

bool sampled(uint64_t Seed, uint64_t I) {
  return fuzz::mix64(Seed ^ 0x4efe4eeull ^ fuzz::mix64(I)) % 16 == 0;
}

/// Sum over \p Pids of a /proc/<pid>/status field, in KiB.
uint64_t statusKb(const std::vector<pid_t> &Pids, const std::string &Field) {
  uint64_t Sum = 0;
  for (pid_t P : Pids) {
    std::ifstream In("/proc/" + std::to_string(P) + "/status");
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind(Field + ":", 0) == 0)
        Sum += std::strtoull(Line.c_str() + Field.size() + 1, nullptr, 10);
  }
  return Sum;
}

/// A running irlt-front process, stopped (drained) on destruction.
class FrontProcess {
public:
  FrontProcess(const Options &O, const std::string &Sock) : Sock(Sock) {
    int Pipe[2];
    if (pipe(Pipe) != 0)
      return;
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_adddup2(&FA, Pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&FA, Pipe[0]);
    std::vector<std::string> Args{O.FrontBin,     "--socket",    Sock,
                                  "--shards",     std::to_string(Shards),
                                  "--jobs",       "1",
                                  "--serve-bin",  O.ServeBin,
                                  "--shard-base", Sock + ".shard"};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    if (posix_spawn(&Pid, O.FrontBin.c_str(), &FA, nullptr, Argv.data(),
                    environ) != 0)
      Pid = -1;
    posix_spawn_file_actions_destroy(&FA);
    close(Pipe[1]);
    Out = Pipe[0];
    if (Pid > 0)
      Ready = readLine(30000).find("\"serving\"") != std::string::npos;
  }

  ~FrontProcess() { stop(); }
  FrontProcess(const FrontProcess &) = delete;
  FrontProcess &operator=(const FrontProcess &) = delete;

  bool ready() const { return Ready; }

  /// The worker processes (children of the front).
  std::vector<pid_t> workers() const {
    std::vector<pid_t> Pids;
    std::error_code EC;
    for (const auto &T : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(Pid) + "/task", EC)) {
      std::ifstream In(T.path() / "children");
      pid_t C;
      while (In >> C)
        Pids.push_back(C);
    }
    return Pids;
  }

  /// SIGTERM drain; SIGKILL (front and workers) if it does not end.
  void stop() {
    if (Pid <= 0)
      return;
    std::vector<pid_t> Workers = workers();
    kill(Pid, SIGTERM);
    // The drained record, then EOF once the front exits.
    while (!readLine(20000).empty()) {
    }
    int Status = 0;
    pid_t Done = 0;
    for (int Tries = 0; Tries < 500 && Done == 0; ++Tries) {
      Done = waitpid(Pid, &Status, WNOHANG);
      if (Done == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (Done == 0) { // the drain hung: stop the front and its workers
      for (pid_t W : Workers)
        kill(W, SIGKILL);
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
    }
    close(Out);
    Pid = -1;
  }

private:
  std::string Sock;
  pid_t Pid = -1;
  int Out = -1;
  bool Ready = false;
  std::string Buf;

  /// The next stdout line; "" on EOF or after \p TimeoutMs.
  std::string readLine(int TimeoutMs) {
    uint64_t Deadline = nowNs() + static_cast<uint64_t>(TimeoutMs) * 1000000;
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string L = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return L;
      }
      uint64_t Now = nowNs();
      if (Now >= Deadline)
        return "";
      pollfd P{Out, POLLIN, 0};
      if (poll(&P, 1, static_cast<int>((Deadline - Now) / 1000000) + 1) <= 0)
        return "";
      char Chunk[4096];
      ssize_t N = read(Out, Chunk, sizeof(Chunk));
      if (N <= 0)
        return "";
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }
};

bool recordOk(const std::string &Record) {
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(Record);
  return V && V->boolOr("ok", false);
}

/// Sends \p Lines down one connection and drains the responses; false on
/// a transport failure or an ok:false record.
bool pipelined(const std::string &Sock, const std::vector<Request> &Lines) {
  ErrorOr<serve::ClientConn> C = serve::connectUnix(Sock);
  if (!C)
    return false;
  for (const Request &L : Lines)
    if (!C->sendFrame(L.Line))
      return false;
  for (size_t I = 0; I < Lines.size(); ++I) {
    ErrorOr<std::string> Resp = C->recvFrame(RecvTimeoutMs);
    if (!Resp || !recordOk(*Resp))
      return false;
  }
  return true;
}

/// Round-trip times (us) of \p Lines sent one at a time.
std::vector<double> roundTrips(const std::string &Sock,
                               const std::vector<Request> &Lines,
                               Report &R) {
  std::vector<double> Us;
  ErrorOr<serve::ClientConn> C = serve::connectUnix(Sock);
  if (!C) {
    R.fail("hop probe: cannot connect to " + Sock);
    return Us;
  }
  for (const Request &L : Lines) {
    uint64_t T0 = nowNs();
    ErrorOr<std::string> Resp = C->call(L.Line, RecvTimeoutMs);
    if (!Resp || !recordOk(*Resp)) {
      R.fail("hop probe: request failed on " + Sock);
      return Us;
    }
    Us.push_back(static_cast<double>(nowNs() - T0) / 1e3);
  }
  return Us;
}

/// The outcome of the open-loop stream.
struct Stream {
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  std::string FirstError;
  std::vector<double> LateMs; ///< send time minus due time
  Records Kept;               ///< sampled records, for the referee
};

Stream openLoop(const Options &O, const Corpus &C, const std::string &Sock,
                Report &R) {
  // The schedule: one request every 1/RatePerSec seconds.
  std::vector<uint64_t> DueOffsetNs;
  for (double T = 0; T < ProbeSeconds; T += 1.0 / RatePerSec)
    DueOffsetNs.push_back(static_cast<uint64_t>(T * 1e9));
  size_t N = DueOffsetNs.size();
  std::vector<Request> Reqs(N);
  for (size_t I = 0; I < N; ++I)
    Reqs[I] = C.serveAt(I);

  struct Conn {
    serve::ClientConn C;
    std::mutex Mu;
    std::condition_variable Cv;
    std::deque<size_t> InFlight;
    bool Done = false;
  };
  unsigned K = O.Threads;
  std::vector<std::unique_ptr<Conn>> Conns;
  for (unsigned I = 0; I < K; ++I) {
    ErrorOr<serve::ClientConn> CC = serve::connectUnix(Sock);
    if (!CC) {
      R.fail("serve probe: cannot connect to the front");
      return {};
    }
    Conns.push_back(std::make_unique<Conn>());
    Conns.back()->C = CC.take();
  }
  std::vector<uint64_t> SentNs(N, 0);
  std::vector<std::string> Bodies(N);
  std::vector<char> Ok(N, 0);

  auto Receive = [&](Conn &Cn) {
    for (;;) {
      size_t I;
      {
        std::unique_lock<std::mutex> Lock(Cn.Mu);
        Cn.Cv.wait(Lock, [&] { return Cn.Done || !Cn.InFlight.empty(); });
        if (Cn.InFlight.empty())
          return;
        I = Cn.InFlight.front();
        Cn.InFlight.pop_front();
      }
      ErrorOr<std::string> Resp = Cn.C.recvFrame(RecvTimeoutMs);
      if (!Resp)
        return; // the remaining requests of this connection stay unanswered
      Ok[I] = recordOk(*Resp);
      Bodies[I] = Resp.take();
    }
  };
  std::vector<std::thread> Receivers;
  for (auto &Cn : Conns)
    Receivers.emplace_back(Receive, std::ref(*Cn));

  uint64_t Start = nowNs() + 1000000; // first due time 1 ms from now
  for (size_t I = 0; I < N; ++I) {
    uint64_t Due = Start + DueOffsetNs[I];
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(Due)));
    Conn &Cn = *Conns[I % K];
    {
      std::lock_guard<std::mutex> Lock(Cn.Mu);
      Cn.InFlight.push_back(I);
    }
    SentNs[I] = nowNs();
    Cn.C.sendFrame(Reqs[I].Line);
    Cn.Cv.notify_one();
  }
  for (auto &Cn : Conns) {
    std::lock_guard<std::mutex> Lock(Cn->Mu);
    Cn->Done = true;
    Cn->Cv.notify_one();
  }
  for (std::thread &T : Receivers)
    T.join();

  Stream S;
  for (size_t I = 0; I < N; ++I) {
    S.LateMs.push_back(
        static_cast<double>(SentNs[I] - (Start + DueOffsetNs[I])) / 1e6);
    if (!Ok[I]) {
      if (!S.Failed++)
        S.FirstError = Bodies[I].empty() ? "no response" : Bodies[I];
      continue;
    }
    ++S.Completed;
    if (sampled(O.Seed, I))
      S.Kept.emplace(I, std::move(Bodies[I]));
  }
  return S;
}

/// Recomputes sampled served records in process through a fresh cache-off
/// Pipeline, each from an empty global legality engine, and compares them
/// byte for byte.
void referee(const Corpus &C, const Records &Kept, Report &R) {
  api::Pipeline Ref(api::PipelineOptions{false, {}, 0});
  engine::EngineOptions EO;
  EO.ToolName = "irlt-serve";
  engine::StageSampler S;
  unsigned Checked = 0, Bad = 0;
  for (const auto &[I, Record] : Kept) {
    if (Checked++ >= RefereeRequests)
      break;
    legality::IncrementalEngine::global().clear();
    engine::RequestOutcome Out =
        engine::processRequest(Ref, EO, C.serveAt(I).Line, I + 1, S);
    if (Out.Record != Record && !Bad++)
      R.fail("serve referee: request " + std::to_string(I) +
             " differs from its cache-off recomputation\n  served:  " +
             Record + "\n  referee: " + Out.Record);
  }
  Report::note("serve referee: " +
               std::to_string(std::min<size_t>(Kept.size(), RefereeRequests)) +
               " served records recomputed cache-off, " + std::to_string(Bad) +
               " mismatches");
}

/// The hop probes: the same sequential warm requests through an in-process
/// serve::Server (traced) and through the front.
void probeHops(const Options &O, const Corpus &C, const std::string &FrontSock,
               Report &R) {
  serve::ServeOptions SO;
  SO.SocketPath = O.RunDir + "/direct.sock";
  serve::Server Srv(SO);
  ErrorOr<bool> Started = Srv.start();
  if (!Started) {
    R.fail("hop probe: in-process server: " + Started.message());
    return;
  }
  std::thread Run([&] { Srv.run(); });
  std::vector<Request> Probe;
  for (unsigned K = 0; K < HopProbes; ++K)
    Probe.push_back(C.warmSet()[K % C.warmSet().size()]);
  if (!pipelined(SO.SocketPath, C.warmSet()))
    R.fail("hop probe: warm-up through the in-process server failed");
  trace::reset();
  trace::setPhase(trace::Probe);
  trace::setEnabled(true);
  std::vector<double> Direct = roundTrips(SO.SocketPath, Probe, R);
  trace::setEnabled(false);
  Srv.requestDrain();
  Run.join();
  std::vector<trace::Span> Spans = trace::collect();
  trace::requireLayers(Spans, {trace::Engine}, "hop probe", R);
  trace::write(Spans, O.RunDir + "/trace-serve.jsonl", 50000);
  std::vector<double> EngineUs;
  for (const trace::Span &S : Spans)
    if (S.L == trace::Engine)
      EngineUs.push_back(static_cast<double>(S.durNs()) / 1e3);
  std::vector<double> ViaFront = roundTrips(FrontSock, Probe, R);
  R.metric("serve.hop_us", median(Direct) - median(EngineUs), "us");
  R.metric("front.hop_us", median(ViaFront) - median(Direct), "us");
}

} // namespace

void probeServeStack(const Options &O, const Corpus &C, Report &R) {
  std::string Sock = O.RunDir + "/front.sock";
  FrontProcess F(O, Sock);
  if (!F.ready()) {
    R.fail("irlt-front did not start");
    return;
  }
  if (!pipelined(Sock, C.warmSet()))
    R.fail("serve probe: the warm-up pass failed");
  std::vector<pid_t> Workers = F.workers();
  uint64_t RssBeforeKb = statusKb(Workers, "VmRSS");
  Stream S = openLoop(O, C, Sock, R);
  uint64_t RssAfterKb = statusKb(Workers, "VmRSS");

  R.Attempted += S.Completed + S.Failed;
  R.Failed += S.Failed;
  if (S.Failed)
    R.fail("serve probe: " + std::to_string(S.Failed) +
           " requests failed; first: " + S.FirstError);
  std::vector<double> Late = S.LateMs;
  Report::note("generator: " + std::to_string(S.LateMs.size()) +
               " requests at " + std::to_string(RatePerSec) +
               "/s, late by p50 " + std::to_string(median(Late)) +
               " ms, p99 " + std::to_string(quantile(Late, 0.99)) +
               " ms, max " + std::to_string(quantile(Late, 1.0)) + " ms");
  R.metric("serve.generator_late_ms", quantile(Late, 0.99), "ms");
  R.metric("serve.rss_growth_kb_per_kreq",
           S.Completed ? (static_cast<double>(RssAfterKb) -
                          static_cast<double>(RssBeforeKb)) /
                             (static_cast<double>(S.Completed) / 1000.0)
                       : 0,
           "KiB/kreq");
  probeHops(O, C, Sock, R);
  F.stop();
  referee(C, S.Kept, R);
}

} // namespace perfbench
