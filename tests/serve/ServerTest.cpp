//===- tests/serve/ServerTest.cpp - In-process serve daemon tests ---------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a Server instance in-process over real sockets: inline ops,
/// pipelined ordering, the determinism anchor (byte-identical responses
/// across worker counts and cache cold/warm/restored), admission
/// shedding, deadlines, structured bad-frame and connection-limit
/// rejects, worker-throw, and the drain lifecycle. Every recv carries a
/// timeout so a regression fails instead of hanging the suite.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Client.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

using namespace irlt;
using namespace irlt::serve;

namespace {

constexpr uint64_t RecvMs = 30000;

const char *MatmulEscaped =
    "arrays B, C\\ndo i = 1, n\\n  do j = 1, n\\n    do k = 1, n\\n"
    "      A(i, j) += B(i, k) * C(k, j)\\n    enddo\\n  enddo\\nenddo\\n";

const char *TriangularEscaped =
    "do i = 1, n\\n  do j = 1, i\\n    a(i, j) = a(i, j) + 1\\n"
    "  enddo\\nenddo\\n";

std::string sockPath(const std::string &Name) {
  return std::string(::testing::TempDir()) + "irlt_" + Name + ".sock";
}

/// The mixed request corpus the determinism tests replay everywhere.
std::vector<std::string> corpus() {
  return {
      std::string(R"({"id":"r-block","nest":")") + MatmulEscaped +
          R"(","script":"block 1 3 8 8 8","emit":"loop"})",
      std::string(R"({"id":"r-auto","nest":")") + MatmulEscaped +
          R"(","auto":"locality","beam":2,"depth":1})",
      std::string(R"({"id":"r-illegal","nest":")") + TriangularEscaped +
          R"(","script":"interchange 1 2"})",
      R"({"id":"r-bad","script":"x"})",
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

/// Serves \p Requests on a fresh connection of a fresh server built from
/// \p Opts, drains, and returns the responses.
std::vector<std::string> serveOnce(ServeOptions Opts,
                                   const std::vector<std::string> &Requests,
                                   size_t Repeats = 1) {
  Server S(Opts);
  auto St = S.start();
  EXPECT_TRUE(static_cast<bool>(St)) << St.message();
  std::vector<std::string> Out;
  for (size_t R = 0; R < Repeats; ++R) {
    auto C = connectUnix(Opts.SocketPath);
    EXPECT_TRUE(static_cast<bool>(C)) << C.message();
    std::vector<std::string> Got = roundTrip(*C, Requests);
    Out.insert(Out.end(), Got.begin(), Got.end());
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
  return Out;
}

/// Extracts the integer after "\p Field": in a response body.
uint64_t u64Field(const std::string &Body, const std::string &Field) {
  std::string Needle = "\"" + Field + "\":";
  size_t At = Body.find(Needle);
  EXPECT_NE(At, std::string::npos) << Field << " missing in " << Body;
  if (At == std::string::npos)
    return 0;
  return std::stoull(Body.substr(At + Needle.size()));
}

} // namespace

TEST(Server, InlineOpsAnswerWithoutQueueing) {
  ServeOptions O;
  O.SocketPath = sockPath("inline");
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();

    ASSERT_TRUE(C->sendFrame(R"({"op":"healthz","id":"h1"})"));
    auto H = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();
    EXPECT_NE(H->find("\"record\":\"healthz\""), std::string::npos);
    EXPECT_NE(H->find("\"id\":\"h1\""), std::string::npos);
    EXPECT_NE(H->find("\"ok\":true"), std::string::npos);
    EXPECT_NE(H->find("\"draining\":false"), std::string::npos);

    ASSERT_TRUE(C->sendFrame(R"({"op":"statz","id":"s1"})"));
    auto Z = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(Z)) << Z.message();
    EXPECT_NE(Z->find("\"record\":\"statz\""), std::string::npos);
    EXPECT_EQ(u64Field(*Z, "frames_in"), 2u);
    EXPECT_EQ(u64Field(*Z, "inline_ops"), 2u);
    EXPECT_EQ(u64Field(*Z, "queue_capacity"), O.QueueCapacity);

    // persist without --persist is a structured error, not a crash.
    ASSERT_TRUE(C->sendFrame(R"({"op":"persist","id":"p1"})"));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"ok\":false"), std::string::npos);
    EXPECT_NE(P->find("persistence is disabled"), std::string::npos);

    ASSERT_TRUE(C->sendFrame(R"({"op":"no-such-op","id":"u1"})"));
    auto U = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(U)) << U.message();
    EXPECT_NE(U->find("\"kind\":\"request\""), std::string::npos);
    EXPECT_NE(U->find("unknown op"), std::string::npos);
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
  EXPECT_EQ(S.stats().FramesIn.load(),
            S.stats().InlineOps.load() + S.stats().Admitted.load() +
                S.stats().Shed.load() + S.stats().DrainRejects.load());
}

TEST(Server, PipelinedResponsesArriveInRequestOrder) {
  ServeOptions O;
  O.SocketPath = sockPath("order");
  O.Jobs = 4; // concurrent workers must not reorder a connection's replies
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    // Interleave slow engine requests with instant inline ops: the
    // reorder buffer must hold the inline replies behind the slow ones.
    std::vector<std::string> Reqs;
    for (int I = 0; I < 12; ++I) {
      if (I % 3 == 2)
        Reqs.push_back(R"({"op":"healthz","id":"q)" + std::to_string(I) +
                       "\"}");
      else
        Reqs.push_back(std::string(R"({"id":"q)") + std::to_string(I) +
                       R"(","nest":")" + MatmulEscaped +
                       R"(","script":"block 1 3 8 8 8"})");
    }
    std::vector<std::string> Got = roundTrip(*C, Reqs);
    ASSERT_EQ(Got.size(), Reqs.size());
    for (int I = 0; I < 12; ++I)
      EXPECT_NE(Got[I].find("\"id\":\"q" + std::to_string(I) + "\""),
                std::string::npos)
          << "response " << I << " out of order: " << Got[I];
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
}

TEST(Server, ResponsesAreByteIdenticalAcrossJobsAndCacheModes) {
  std::vector<std::string> Reqs = corpus();

  ServeOptions Cold;
  Cold.SocketPath = sockPath("det_cold");
  Cold.Jobs = 1;
  std::vector<std::string> Baseline = serveOnce(Cold, Reqs);
  ASSERT_EQ(Baseline.size(), Reqs.size());

  // Warm: the same corpus twice through one server; the second pass hits
  // the caches and must not change a byte.
  ServeOptions Warm;
  Warm.SocketPath = sockPath("det_warm");
  Warm.Jobs = 1;
  std::vector<std::string> Twice = serveOnce(Warm, Reqs, /*Repeats=*/2);
  ASSERT_EQ(Twice.size(), 2 * Reqs.size());
  for (size_t I = 0; I < Reqs.size(); ++I) {
    EXPECT_EQ(Twice[I], Baseline[I]);
    EXPECT_EQ(Twice[Reqs.size() + I], Baseline[I]) << "warm pass diverged";
  }

  ServeOptions Par;
  Par.SocketPath = sockPath("det_jobs");
  Par.Jobs = 4;
  EXPECT_EQ(serveOnce(Par, Reqs), Baseline) << "worker count leaked in";

  ServeOptions NoCache;
  NoCache.SocketPath = sockPath("det_nocache");
  NoCache.EnableCache = false;
  EXPECT_EQ(serveOnce(NoCache, Reqs), Baseline) << "cache is not a no-op";

  ServeOptions Tiny;
  Tiny.SocketPath = sockPath("det_evict");
  Tiny.CacheCapacity = 1; // constant eviction churn
  EXPECT_EQ(serveOnce(Tiny, Reqs, /*Repeats=*/2),
            [&] {
              std::vector<std::string> B2 = Baseline;
              B2.insert(B2.end(), Baseline.begin(), Baseline.end());
              return B2;
            }())
      << "eviction changed a response";
}

TEST(Server, RestoredCacheReplaysByteIdentical) {
  std::vector<std::string> Reqs = corpus();
  std::string Persist = std::string(::testing::TempDir()) + "irlt_det.journal";
  std::remove(Persist.c_str());

  ServeOptions A;
  A.SocketPath = sockPath("persist_a");
  A.PersistPath = Persist;
  std::vector<std::string> Baseline = serveOnce(A, Reqs);

  ServeOptions B;
  B.SocketPath = sockPath("persist_b");
  B.PersistPath = Persist;
  Server S(B);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  EXPECT_TRUE(S.journalLoad().FileFound);
  EXPECT_GE(S.journalLoad().Replayed, 2u) << "restart must rewarm the cache";
  EXPECT_EQ(S.journalLoad().Discarded, 0u);
  {
    auto C = connectUnix(B.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    EXPECT_EQ(roundTrip(*C, Reqs), Baseline)
        << "journal-restored responses diverged";
    // The replay really warmed the dependence cache: the corpus re-run
    // above must have hit it.
    ASSERT_TRUE(C->sendFrame(R"({"op":"statz","id":"s"})"));
    auto Z = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(Z)) << Z.message();
    EXPECT_GT(u64Field(*Z, "dep_hits"), 0u);
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
  EXPECT_GT(S.persistedEntries(), 0u);
}

TEST(Server, JournalCapSmallerThanDumpRestoresMruTailByteIdentical) {
  // Restarting with --journal-cap below the dumped entry count keeps the
  // MRU tail resident and must not change a response byte: the journal
  // only carries cache warmth, never results.
  std::vector<std::string> Reqs = corpus();
  std::string Persist = std::string(::testing::TempDir()) + "irlt_cap.journal";
  std::remove(Persist.c_str());

  ServeOptions A;
  A.SocketPath = sockPath("cap_a");
  A.PersistPath = Persist;
  std::vector<std::string> Baseline = serveOnce(A, Reqs);

  ServeOptions B;
  B.SocketPath = sockPath("cap_b");
  B.PersistPath = Persist;
  B.JournalCapacity = 1;
  Server S(B);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  EXPECT_TRUE(S.journalLoad().FileFound);
  EXPECT_GE(S.journalLoad().Replayed, 2u)
      << "residency is capped, replay is not";
  EXPECT_EQ(S.journalLoad().Discarded, 0u);
  {
    auto C = connectUnix(B.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    EXPECT_EQ(roundTrip(*C, Reqs), Baseline)
        << "capacity-bounded restore diverged";
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
  EXPECT_EQ(S.persistedEntries(), 1u)
      << "the next dump carries exactly the capped MRU tail";
}

TEST(Server, CacheCountersReconcileUnderEviction) {
  ServeOptions O;
  O.SocketPath = sockPath("reconcile");
  O.CacheCapacity = 1;
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::vector<std::string> Reqs;
    for (int Pass = 0; Pass < 3; ++Pass) {
      std::vector<std::string> Co = corpus();
      Reqs.insert(Reqs.end(), Co.begin(), Co.end());
    }
    roundTrip(*C, Reqs);
    ASSERT_TRUE(C->sendFrame(R"({"op":"statz","id":"s"})"));
    auto Z = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(Z)) << Z.message();
    EXPECT_EQ(u64Field(*Z, "dep_hits") + u64Field(*Z, "dep_misses"),
              u64Field(*Z, "dep_lookups"));
    EXPECT_EQ(u64Field(*Z, "legality_hits") + u64Field(*Z, "legality_misses"),
              u64Field(*Z, "legality_lookups"));
    EXPECT_EQ(u64Field(*Z, "dep_inserts") - u64Field(*Z, "dep_evictions"),
              u64Field(*Z, "dep_entries"));
    EXPECT_EQ(u64Field(*Z, "legality_inserts") -
                  u64Field(*Z, "legality_evictions"),
              u64Field(*Z, "legality_entries"));
    EXPECT_GT(u64Field(*Z, "dep_evictions"), 0u) << "capacity 1 must churn";
    EXPECT_LE(u64Field(*Z, "dep_entries"), 1u);
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
}

TEST(Server, FullQueueShedsWithStructuredOverloaded) {
  ServeOptions O;
  O.SocketPath = sockPath("shed");
  O.Jobs = 1;
  O.QueueCapacity = 1;
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  size_t Sent = 32;
  {
    auto C = connectUnix(O.SocketPath);
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
    EXPECT_GT(Overloaded, 0u) << "queue bound 1 under a 32-burst must shed";
    EXPECT_GT(Results, 0u) << "shedding must not starve admitted work";
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
  const ServerStats &T = S.stats();
  EXPECT_EQ(T.FramesIn.load(), T.InlineOps.load() + T.Admitted.load() +
                                   T.Shed.load() + T.DrainRejects.load());
  EXPECT_EQ(T.FramesIn.load(), Sent);
}

TEST(Server, ExpiredDeadlineCancelsWithStructuredRecord) {
  ServeOptions O;
  O.SocketPath = sockPath("deadline");
  O.Jobs = 1;
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    // Park the single worker on a slow search, then queue a request with
    // a 1ms deadline behind it: the deadline burns out in the queue
    // (deadlines are measured from arrival), so the cancellation is
    // deterministic - the slow request takes far longer than 1ms.
    std::string Slow = std::string(R"({"id":"slow","nest":")") +
                       MatmulEscaped + R"(","auto":"locality","beam":2})";
    std::string Req = std::string(R"({"id":"dl","deadline_ms":1,"nest":")") +
                      MatmulEscaped + R"(","script":"block 1 3 8 8 8"})";
    ASSERT_TRUE(C->sendFrame(Slow));
    ASSERT_TRUE(C->sendFrame(Req));
    auto First = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(First)) << First.message();
    EXPECT_NE(First->find("\"id\":\"slow\""), std::string::npos);
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"kind\":\"deadline\""), std::string::npos) << *P;
    EXPECT_NE(P->find("\"id\":\"dl\""), std::string::npos);
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
  EXPECT_EQ(S.stats().Deadline.load(), 1u);
}

TEST(Server, DeadlineCancelsSearchInsidePlanStage) {
  ServeOptions O;
  O.SocketPath = sockPath("plan-deadline");
  O.Jobs = 1;
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    // The search polls the deadline before every work unit, so a long
    // auto request stops inside its plan stage instead of holding the
    // worker for the whole search.
    auto timedRequest = [&](const std::string &Req, std::string &Resp) {
      auto T0 = std::chrono::steady_clock::now();
      EXPECT_TRUE(C->sendFrame(Req));
      auto P = C->recvFrame(RecvMs);
      EXPECT_TRUE(static_cast<bool>(P)) << P.message();
      Resp = P ? *P : std::string();
      return std::chrono::steady_clock::now() - T0;
    };
    std::string Search = std::string(R"(","nest":")") + MatmulEscaped +
                         R"(","auto":"locality","beam":8,"depth":2})";
    std::string Full, Cut;
    auto FullTime = timedRequest(R"({"id":"full)" + Search, Full);
    EXPECT_NE(Full.find("\"ok\":true"), std::string::npos) << Full;
    auto CutTime = timedRequest(
        R"({"id":"cut","deadline_ms":20)" + Search.substr(1), Cut);
    EXPECT_NE(Cut.find("\"kind\":\"deadline\""), std::string::npos) << Cut;
    EXPECT_NE(Cut.find("deadline exceeded during stage 'plan'"),
              std::string::npos)
        << Cut;
    EXPECT_LT(CutTime * 4, FullTime)
        << "cancelled after "
        << std::chrono::duration<double, std::milli>(CutTime).count()
        << " ms; the whole search takes "
        << std::chrono::duration<double, std::milli>(FullTime).count()
        << " ms";
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
  EXPECT_EQ(S.stats().Deadline.load(), 1u);
}

TEST(Server, GarbageBytesGetBadFrameRecordThenClose) {
  ServeOptions O;
  O.SocketPath = sockPath("garbage");
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    ASSERT_TRUE(C->sendRaw("GET / HTTP/1.1\r\n\r\n"));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"kind\":\"bad_frame\""), std::string::npos) << *P;
    EXPECT_NE(P->find("bad_magic"), std::string::npos);
    auto After = C->recvFrame(RecvMs);
    EXPECT_FALSE(static_cast<bool>(After)) << "connection must be closed";
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
  EXPECT_EQ(S.stats().BadFrames.load(), 1u);
}

TEST(Server, TruncatedFrameAtEofGetsBadFrameRecord) {
  ServeOptions O;
  O.SocketPath = sockPath("trunc");
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
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
    EXPECT_NE(P->find("truncated"), std::string::npos);
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
}

TEST(Server, OversizedDeclaredLengthRejectedStructurally) {
  ServeOptions O;
  O.SocketPath = sockPath("oversized");
  O.MaxFrameBytes = 1024;
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::string Raw(FrameMagic, 4);
    Raw += std::string(4, '\xff'); // declares ~4 GiB
    ASSERT_TRUE(C->sendRaw(Raw));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"kind\":\"bad_frame\""), std::string::npos) << *P;
    EXPECT_NE(P->find("oversized_frame"), std::string::npos);
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
}

TEST(Server, WorkerThrowFaultYieldsInternalRecord) {
  ServeOptions O;
  O.SocketPath = sockPath("boom");
  O.Faults.WorkerThrow = true;
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    auto C = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    std::string Req = std::string(R"({"id":"boom-1","nest":")") +
                      MatmulEscaped + R"(","script":"block 1 3 8 8 8"})";
    ASSERT_TRUE(C->sendFrame(Req));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"kind\":\"internal\""), std::string::npos) << *P;
    // The same request without the marker id still serves normally: the
    // fault is targeted, not a poison pill for the worker pool.
    std::string Ok = std::string(R"({"id":"fine","nest":")") + MatmulEscaped +
                     R"(","script":"block 1 3 8 8 8"})";
    ASSERT_TRUE(C->sendFrame(Ok));
    auto Q = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(Q)) << Q.message();
    EXPECT_NE(Q->find("\"ok\":true"), std::string::npos) << *Q;
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
}

TEST(Server, ShortReadFaultStillServesCorrectly) {
  // 1-byte socket reads exercise reassembly on maximally fragmented
  // input without changing a single response byte.
  std::vector<std::string> Reqs = corpus();
  ServeOptions Plain;
  Plain.SocketPath = sockPath("shortread_base");
  std::vector<std::string> Baseline = serveOnce(Plain, Reqs);

  ServeOptions Frag;
  Frag.SocketPath = sockPath("shortread");
  Frag.Faults.ShortRead = true;
  EXPECT_EQ(serveOnce(Frag, Reqs), Baseline);
}

TEST(Server, ConnectionLimitRejectsWithOneOverloadedRecordThenEof) {
  ServeOptions O;
  O.SocketPath = sockPath("maxconns");
  O.MaxConns = 1;
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  {
    // A round trip on the held connection proves it was accepted before
    // the second one arrives.
    auto Held = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(Held)) << Held.message();
    ASSERT_TRUE(Held->sendFrame(R"({"op":"healthz","id":"h"})"));
    auto H = Held->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(H)) << H.message();

    auto Extra = connectUnix(O.SocketPath);
    ASSERT_TRUE(static_cast<bool>(Extra)) << Extra.message();
    auto P = Extra->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_EQ(*P, R"({"schema_version":1,"tool":"irlt-serve","id":"-",)"
                  R"("ok":false,"error":{"kind":"overloaded",)"
                  R"x("message":"connection limit reached (1)"}})x");
    auto After = Extra->recvFrame(RecvMs);
    ASSERT_FALSE(static_cast<bool>(After));
    EXPECT_NE(After.message().find("connection closed"), std::string::npos)
        << After.message();

    ASSERT_TRUE(Held->sendFrame(R"({"op":"statz","id":"s"})"));
    auto Z = Held->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(Z)) << Z.message();
    EXPECT_EQ(u64Field(*Z, "conns_accepted"), 1u);
    EXPECT_EQ(u64Field(*Z, "conns_rejected"), 1u);
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
}

TEST(Server, TcpLoopbackModeWorks) {
  ServeOptions O;
  O.TcpPort = 0; // kernel-assigned
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  ASSERT_GT(S.boundPort(), 0);
  {
    auto C = connectTcp(S.boundPort());
    ASSERT_TRUE(static_cast<bool>(C)) << C.message();
    ASSERT_TRUE(C->sendFrame(R"({"op":"healthz","id":"t"})"));
    auto P = C->recvFrame(RecvMs);
    ASSERT_TRUE(static_cast<bool>(P)) << P.message();
    EXPECT_NE(P->find("\"ok\":true"), std::string::npos);
  }
  S.requestDrain();
  EXPECT_TRUE(S.run());
}

TEST(Server, DrainCompletesAdmittedWorkAndRejectsNewConnections) {
  ServeOptions O;
  O.SocketPath = sockPath("drain");
  O.Jobs = 2;
  Server S(O);
  auto St = S.start();
  ASSERT_TRUE(static_cast<bool>(St)) << St.message();
  std::vector<std::string> Reqs = corpus();
  auto C = connectUnix(O.SocketPath);
  ASSERT_TRUE(static_cast<bool>(C)) << C.message();
  std::vector<std::string> Got = roundTrip(*C, Reqs);
  ASSERT_EQ(Got.size(), Reqs.size());

  S.requestDrain();
  EXPECT_TRUE(S.run()) << "no response write may fail";

  const ServerStats &T = S.stats();
  EXPECT_EQ(T.Admitted.load(), static_cast<uint64_t>(Reqs.size()));
  EXPECT_EQ(T.Served.load(), T.Admitted.load())
      << "zero admitted requests lost on drain";
  EXPECT_EQ(T.WriteFailures.load(), 0u);
  // The socket is gone: a post-drain connect must fail, not hang.
  auto C2 = connectUnix(O.SocketPath);
  EXPECT_FALSE(static_cast<bool>(C2));
}
