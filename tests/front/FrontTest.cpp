//===- tests/front/FrontTest.cpp - In-process sharded front tests ---------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a Front instance in-process over real sockets, with real
/// irlt-serve worker subprocesses (IRLT_SERVE_PATH from the build): the
/// byte-identity anchor against a direct single-process server, inline-op
/// fan-out, window shedding, worker-crash and worker-hang recovery, drain
/// aggregation, structured bad-frame and connection-limit rejects, and
/// close-on-exec descriptors. Every recv carries a timeout so a
/// supervision regression fails instead of hanging the suite.
///
//===----------------------------------------------------------------------===//

#include "front/Front.h"

#include "serve/Client.h"
#include "serve/Server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace irlt;
using namespace irlt::front;
using namespace irlt::serve;

namespace {

#ifndef IRLT_SERVE_PATH
#define IRLT_SERVE_PATH "irlt-serve"
#endif

constexpr uint64_t RecvMs = 60000;

const char *MatmulEscaped =
    "arrays B, C\\ndo i = 1, n\\n  do j = 1, n\\n    do k = 1, n\\n"
    "      A(i, j) += B(i, k) * C(k, j)\\n    enddo\\n  enddo\\nenddo\\n";

const char *TriangularEscaped =
    "do i = 1, n\\n  do j = 1, i\\n    a(i, j) = a(i, j) + 1\\n"
    "  enddo\\nenddo\\n";

std::string sockPath(const std::string &Name) {
  return std::string(::testing::TempDir()) + "irlt_front_" + Name + ".sock";
}

FrontOptions frontOpts(const std::string &Tag, unsigned Shards) {
  FrontOptions O;
  O.Serve.SocketPath = sockPath(Tag);
  O.Shards = Shards;
  O.ServeBinary = IRLT_SERVE_PATH;
  return O;
}

/// The mixed corpus the byte-identity anchor replays: ok requests, an
/// illegal transform, a missing nest, a default (positional) id, an
/// unparseable line, and an unknown op. The last three are the envelope
/// stress: their responses embed the request line number, so they only
/// match a direct run if the front's line_no forwarding is exact.
std::vector<std::string> corpus() {
  return {
      std::string(R"({"id":"r-block","nest":")") + MatmulEscaped +
          R"(","script":"block 1 3 8 8 8","emit":"loop"})",
      std::string(R"({"id":"r-auto","nest":")") + MatmulEscaped +
          R"(","auto":"locality","beam":2,"depth":1})",
      std::string(R"({"id":"r-illegal","nest":")") + TriangularEscaped +
          R"(","script":"interchange 1 2"})",
      R"({"id":"r-bad","script":"x"})",
      std::string(R"({"nest":")") + TriangularEscaped +
          R"(","script":"reverse 1"})", // no id: positional default
      "this is not json",               // parse error names the line
      R"({"op":"no-such-op","id":"u1"})",
  };
}

/// Pipelines all of \p Requests, then collects one response each.
std::vector<std::string> roundTrip(ClientConn &C,
                                   const std::vector<std::string> &Requests) {
  for (const std::string &R : Requests)
    EXPECT_TRUE(C.sendFrame(R));
  std::vector<std::string> Out;
  for (size_t I = 0; I < Requests.size(); ++I) {
    auto P = C.recvFrame(RecvMs);
    EXPECT_TRUE(static_cast<bool>(P)) << P.message();
    Out.push_back(P ? *P : std::string());
  }
  return Out;
}

/// Serves \p Requests through a fresh direct (single-process, in-process)
/// server and returns the responses - the byte-identity baseline.
std::vector<std::string> directServe(const std::string &Tag,
                                     const std::vector<std::string> &Reqs) {
  ServeOptions O;
  O.SocketPath = sockPath(Tag);
  Server S(O);
  auto St = S.start();
  EXPECT_TRUE(static_cast<bool>(St)) << St.message();
  std::vector<std::string> Out;
  {
    auto C = connectUnix(O.SocketPath);
    EXPECT_TRUE(static_cast<bool>(C)) << C.message();
    Out = roundTrip(*C, Reqs);
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
  return Out;
}

/// Polls the front's aggregated healthz until ok:true (all shards up) or
/// \p Millis elapse.
bool waitHealthy(const std::string &Sock, int Millis) {
  for (int I = 0; I < Millis / 50; ++I) {
    auto C = connectUnix(Sock);
    if (C && C->sendFrame(R"({"op":"healthz","id":"w"})")) {
      auto P = C->recvFrame(5000);
      if (P && P->find("\"ok\":true") != std::string::npos)
        return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

/// The descriptors open in this process.
std::set<int> openFds() {
  std::set<int> Fds;
  for (const auto &E : std::filesystem::directory_iterator("/proc/self/fd"))
    Fds.insert(std::stoi(E.path().filename().string()));
  return Fds;
}

/// What descriptor \p Fd refers to ("socket:[N]", "pipe:[N]", a path), or
/// "" once it is closed.
std::string fdTarget(int Fd) {
  char Buf[256];
  std::string Link = "/proc/self/fd/" + std::to_string(Fd);
  ssize_t N = ::readlink(Link.c_str(), Buf, sizeof(Buf) - 1);
  return N > 0 ? std::string(Buf, static_cast<size_t>(N)) : std::string();
}

} // namespace

TEST(Front, ResponsesByteIdenticalToDirectServe) {
  std::vector<std::string> Reqs = corpus();
  // Per-connection line numbers keep counting across passes (a direct
  // server behaves the same way), so the baseline replays the corpus
  // twice on ONE connection and the comparison is pass-by-pass.
  std::vector<std::string> TwoPasses = Reqs;
  TwoPasses.insert(TwoPasses.end(), Reqs.begin(), Reqs.end());
  std::vector<std::string> Baseline = directServe("ident_direct", TwoPasses);
  ASSERT_EQ(Baseline.size(), TwoPasses.size());

  FrontOptions O = frontOpts("ident", 3);
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::vector<std::string> Got = roundTrip(*C, Reqs);
    // A second pass hits the workers' warm caches: still identical.
    std::vector<std::string> Warm = roundTrip(*C, Reqs);
    Got.insert(Got.end(), Warm.begin(), Warm.end());
    ASSERT_EQ(Got.size(), Baseline.size());
    for (size_t I = 0; I < Baseline.size(); ++I)
      EXPECT_EQ(Got[I], Baseline[I]) << "response " << I << " diverged";
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  const FrontStats &T = F.stats();
  EXPECT_EQ(T.FramesIn.load(),
            T.InlineOps.load() + T.Routed.load() + T.DrainRejects.load());
  EXPECT_EQ(T.Routed.load(), T.Served.load() + T.WindowShed.load() +
                                 T.ShardDownRejects.load());
}

TEST(Front, InlineOpsAggregateAcrossShards) {
  FrontOptions O = frontOpts("inline", 3);
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  EXPECT_EQ(F.shardCount(), 3u);
  EXPECT_EQ(F.shardPids().size(), 3u);
  for (pid_t P : F.shardPids())
    EXPECT_GT(P, 0);
  {
    auto C = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();

    ASSERT_TRUE(C->sendFrame(R"({"op":"healthz","id":"h1"})"));
    auto H = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();
    EXPECT_NE(H->find("\"tool\":\"irlt-front\""), std::string::npos) << *H;
    EXPECT_NE(H->find("\"id\":\"h1\""), std::string::npos);
    EXPECT_NE(H->find("\"ok\":true"), std::string::npos);
    EXPECT_NE(H->find("\"shards\":3"), std::string::npos);
    EXPECT_NE(H->find("\"shards_up\":3"), std::string::npos);

    ASSERT_TRUE(C->sendFrame(R"({"op":"statz","id":"s1"})"));
    auto Z = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(Z)) << Z.message();
    EXPECT_NE(Z->find("\"record\":\"statz\""), std::string::npos);
    EXPECT_NE(Z->find("\"shard_status\""), std::string::npos);
    EXPECT_NE(Z->find("\"routed\""), std::string::npos);

    // persist without a --persist base is a structured error, not a
    // crash - mirroring the single-process server's behavior.
    ASSERT_TRUE(C->sendFrame(R"({"op":"persist","id":"p1"})"));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"ok\":false"), std::string::npos) << *P;
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_EQ(F.stats().InlineOps.load(), 3u);
}

TEST(Front, WindowBoundShedsWithStructuredOverloaded) {
  FrontOptions O = frontOpts("shed", 1);
  O.WindowCapacity = 1;
  O.Serve.Jobs = 1;
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  size_t Sent = 24;
  {
    auto C = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::string Req = std::string(R"({"id":"burst","nest":")") +
                      MatmulEscaped + R"(","auto":"locality","beam":2})";
    for (size_t I = 0; I < Sent; ++I)
      ASSERT_TRUE(C->sendFrame(Req));
    size_t Overloaded = 0, Results = 0;
    for (size_t I = 0; I < Sent; ++I) {
      auto P = C->recvFrame(RecvMs);
      ASSERT_TRUE(static_cast<bool>(P)) << P.message();
      if (P->find("\"kind\":\"overloaded\"") != std::string::npos)
        ++Overloaded;
      else
        ++Results;
    }
    EXPECT_EQ(Overloaded + Results, Sent) << "every frame gets a response";
    EXPECT_GT(Overloaded, 0u) << "window bound 1 under a 24-burst must shed";
    EXPECT_GT(Results, 0u) << "shedding must not starve admitted work";
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_EQ(F.stats().WindowShed.load() + F.stats().Served.load(),
            F.stats().Routed.load());
  EXPECT_GT(F.stats().WindowShed.load(), 0u);
}

TEST(Front, WorkerCrashAnswersInFlightStructuredAndRestarts) {
  FrontOptions O = frontOpts("crash", 1);
  O.Serve.Jobs = 1;
  O.Serve.Faults.WorkerKill = true;
  O.RestartBackoffMillis = 50;
  O.ProbeIntervalMillis = 100;
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    // The marker request crashes the worker right after its response is
    // delivered; the stranded pipelined requests behind it must each get
    // a structured retryable shard_down record - never a hang.
    std::vector<std::string> Reqs;
    Reqs.push_back(std::string(R"({"id":"kill-1","nest":")") + MatmulEscaped +
                   R"(","script":"block 1 3 8 8 8"})");
    for (int I = 0; I < 4; ++I)
      Reqs.push_back(std::string(R"({"id":"stranded-)") + std::to_string(I) +
                     R"(","nest":")" + MatmulEscaped +
                     R"(","script":"interchange 1 2"})");
    std::vector<std::string> Got = roundTrip(*C, Reqs);
    ASSERT_EQ(Got.size(), Reqs.size());
    EXPECT_NE(Got[0].find("\"ok\":true"), std::string::npos)
        << "the crash fires after the marker response: " << Got[0];
    size_t ShardDown = 0;
    for (size_t I = 1; I < Got.size(); ++I) {
      EXPECT_TRUE(Got[I].find("\"ok\":true") != std::string::npos ||
                  Got[I].find("\"kind\":\"shard_down\"") != std::string::npos)
          << Got[I];
      if (Got[I].find("\"kind\":\"shard_down\"") != std::string::npos)
        ++ShardDown;
    }
    EXPECT_GT(ShardDown, 0u) << "a crash mid-pipeline must strand requests";
  }
  // The supervisor restarts the worker; the front then serves again.
  ASSERT_TRUE(waitHealthy(O.Serve.SocketPath, 15000))
      << "worker never restarted";
  {
    auto C = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::string Req = std::string(R"({"id":"after","nest":")") +
                      MatmulEscaped + R"(","script":"block 1 3 8 8 8"})";
    ASSERT_TRUE(C->sendFrame(Req));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"ok\":true"), std::string::npos) << *P;
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_GE(F.stats().Restarts.load(), 1u);
  EXPECT_GE(F.stats().ShardDownRejects.load(), 1u);
}

TEST(Front, WedgedWorkerIsKilledByPendingAgeWatchdog) {
  FrontOptions O = frontOpts("hang", 1);
  O.Serve.Jobs = 1;
  O.Serve.Faults.WorkerHang = true;
  O.PendingTimeoutMillis = 400; // the hang is 1h; only the watchdog saves us
  O.ProbeIntervalMillis = 100;
  O.RestartBackoffMillis = 50;
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    // The wedged worker still answers healthz probes (its reader thread
    // is fine), so liveness probing alone would never catch this.
    std::vector<std::string> Reqs = {
        std::string(R"({"id":"hang-1","nest":")") + MatmulEscaped +
            R"(","script":"block 1 3 8 8 8"})",
        std::string(R"({"id":"behind","nest":")") + MatmulEscaped +
            R"(","script":"interchange 1 2"})",
    };
    std::vector<std::string> Got = roundTrip(*C, Reqs);
    ASSERT_EQ(Got.size(), 2u);
    for (const std::string &G : Got)
      EXPECT_NE(G.find("\"kind\":\"shard_down\""), std::string::npos) << G;
  }
  ASSERT_TRUE(waitHealthy(O.Serve.SocketPath, 15000))
      << "worker never restarted";
  {
    auto C = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::string Req = std::string(R"({"id":"after","nest":")") +
                      MatmulEscaped + R"(","script":"block 1 3 8 8 8"})";
    ASSERT_TRUE(C->sendFrame(Req));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"ok\":true"), std::string::npos) << *P;
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_GE(F.stats().HangKills.load(), 1u);
  EXPECT_GE(F.stats().Restarts.load(), 1u);
}

TEST(Front, GarbageBytesGetBadFrameRecordThenClose) {
  FrontOptions O = frontOpts("garbage", 2);
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    ASSERT_TRUE(C->sendRaw("GET / HTTP/1.1\r\n\r\n"));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"kind\":\"bad_frame\""), std::string::npos) << *P;
    EXPECT_NE(P->find("\"tool\":\"irlt-front\""), std::string::npos) << *P;
    auto After = C->recvFrame(RecvMs);
    EXPECT_FALSE(static_cast<bool>(After)) << "connection must be closed";
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_EQ(F.stats().BadFrames.load(), 1u);
}

TEST(Front, TruncatedFrameAtEofGetsBadFrameRecord) {
  FrontOptions O = frontOpts("trunc", 1);
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    // A valid header declaring 64 bytes, 5 bytes of payload, then EOF.
    std::string Raw(FrameMagic, 4);
    Raw += std::string(1, '\x40') + std::string(3, '\0');
    Raw += "hello";
    ASSERT_TRUE(C->sendRaw(Raw));
    C->finishWrites();
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"kind\":\"bad_frame\""), std::string::npos) << *P;
    EXPECT_NE(P->find("\"tool\":\"irlt-front\""), std::string::npos) << *P;
    EXPECT_NE(P->find("truncated"), std::string::npos);
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  EXPECT_EQ(F.stats().BadFrames.load(), 1u);
}

TEST(Front, ShortReadFaultStillServesCorrectly) {
  // 1-byte socket reads on the front (and on its workers, which get the
  // fault forwarded) must not change a response byte.
  std::vector<std::string> Reqs = corpus();
  std::vector<std::string> Baseline = directServe("shortread_direct", Reqs);
  FrontOptions O = frontOpts("shortread", 2);
  O.Serve.Faults.ShortRead = true;
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    EXPECT_EQ(roundTrip(*C, Reqs), Baseline);
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
}

TEST(Front, ConnectionLimitRejectsWithOneOverloadedRecordThenEof) {
  FrontOptions O = frontOpts("maxconns", 1);
  O.Serve.MaxConns = 1;
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    // A round trip on the held connection proves it was accepted before
    // the second one arrives.
    auto Held = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(Held)) << Held.message();
    ASSERT_TRUE(Held->sendFrame(R"({"op":"healthz","id":"h"})"));
    auto H = Held->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();

    auto Extra = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(Extra)) << Extra.message();
    auto P = Extra->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_EQ(*P, R"({"schema_version":1,"tool":"irlt-front","id":"-",)"
                  R"("ok":false,"error":{"kind":"overloaded",)"
                  R"x("message":"connection limit reached (1)"}})x");
    auto After = Extra->recvFrame(RecvMs);
    ASSERT_FALSE(static_cast<bool>(After));
    EXPECT_NE(After.message().find("connection closed"), std::string::npos)
        << After.message();

    ASSERT_TRUE(Held->sendFrame(R"({"op":"statz","id":"s"})"));
    auto Z = Held->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(Z)) << Z.message();
    EXPECT_NE(Z->find("\"conns_accepted\":1,"), std::string::npos) << *Z;
    EXPECT_NE(Z->find("\"conns_rejected\":1,"), std::string::npos) << *Z;
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
}

TEST(Front, EverySocketAndPipeIsCloseOnExec) {
  // The front forks workers, and the server forks compilers, while their
  // threads accept and connect: a descriptor that is not close-on-exec
  // from birth can leak into a child and hold a connection open after
  // its owner closed it. Check every socket and pipe this process opened
  // while an in-process server and a front each serve a client.
  std::set<int> Before = openFds();

  ServeOptions SO;
  SO.SocketPath = sockPath("cloexec_direct");
  Server S(SO);
  auto SSt = S.start();
  ASSERT_TRUE(static_cast<bool>(SSt)) << SSt.message();
  FrontOptions O = frontOpts("cloexec", 2);
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto ToServer = connectUnix(SO.SocketPath);
    ASSERT_TRUE(static_cast<bool>(ToServer)) << ToServer.message();
    auto ToFront = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(ToFront)) << ToFront.message();
    std::vector<std::string> Reqs = corpus();
    Reqs.push_back(R"({"op":"statz","id":"s"})"); // the ops fan-out
    roundTrip(*ToServer, Reqs);
    roundTrip(*ToFront, Reqs);

    size_t Checked = 0;
    for (int Fd : openFds()) {
      if (Before.count(Fd))
        continue;
      std::string Target = fdTarget(Fd);
      if (Target.rfind("socket:", 0) != 0 && Target.rfind("pipe:", 0) != 0)
        continue;
      ++Checked;
      EXPECT_TRUE(::fcntl(Fd, F_GETFD) & FD_CLOEXEC)
          << "fd " << Fd << " (" << Target << ") is inherited across exec";
    }
    // Listeners, drain pipes, accepted and client sockets, the front's
    // worker connections and stdout pipes.
    EXPECT_GE(Checked, 10u);
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
  S.requestDrain();
  EXPECT_TRUE(S.run());
}

TEST(Front, DrainAggregatesWorkerRecords) {
  FrontOptions O = frontOpts("drain", 2);
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  std::vector<std::string> Reqs = corpus();
  // Drop the unknown-op line: the worker answers it from its dispatch
  // path, outside its served counter, which would blur the accounting
  // this test pins down exactly.
  Reqs.pop_back();
  {
    auto C = connectUnix(O.Serve.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    ASSERT_EQ(roundTrip(*C, Reqs).size(), Reqs.size());
  }
  F.requestDrain();
  EXPECT_TRUE(F.run()) << "no response write may fail";

  const FrontStats &T = F.stats();
  EXPECT_EQ(T.Routed.load(), static_cast<uint64_t>(Reqs.size()));
  EXPECT_EQ(T.Served.load(), T.Routed.load())
      << "zero routed requests lost on drain";
  EXPECT_EQ(T.WriteFailures.load(), 0u);

  const FrontDrainSummary &D = F.drainSummary();
  EXPECT_EQ(D.ShardCount, 2u);
  EXPECT_EQ(D.CleanExits, 2u) << "every worker must drain to exit 0";
  EXPECT_EQ(D.WorkerServed, static_cast<uint64_t>(Reqs.size()))
      << "worker drained records must account for every routed request";
  EXPECT_EQ(D.WorkerWriteFailures, 0u);

  // The socket is gone: a post-drain connect must fail, not hang.
  auto C2 = connectUnix(O.Serve.SocketPath);
  EXPECT_FALSE(static_cast<bool>(C2));
}

TEST(Front, TcpLoopbackModeWorks) {
  FrontOptions O;
  O.Serve.TcpPort = 0; // kernel-assigned
  O.Shards = 2;
  O.ServeBinary = IRLT_SERVE_PATH;
  Front F(O);
  auto St = F.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  ASSERT_GT(F.boundPort(), 0);
  {
    auto C = connectTcp(F.boundPort());
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    ASSERT_TRUE(C->sendFrame(R"({"op":"healthz","id":"t"})"));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"ok\":true"), std::string::npos);
  }
  F.requestDrain();
  EXPECT_TRUE(F.run());
}
