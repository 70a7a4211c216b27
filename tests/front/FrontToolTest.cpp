//===- tests/front/FrontToolTest.cpp - irlt-front end to end --------------===//
//
// Drives irlt-front, its irlt-serve workers, and irlt-servectl as real
// subprocesses: the serve/drain lifecycle with journal warm restart, the
// kill-a-worker-under-load acceptance scenario (structured rejects only,
// zero hangs, clean drain, and --retry-overloaded convergence to the
// byte-exact uncontended stream), the --fault list mode, usage errors,
// and irlt-serve flags reaching the workers. Binary paths come from the
// build system.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <sys/types.h>

using namespace irlt;

namespace {

#ifndef IRLT_FRONT_PATH
#define IRLT_FRONT_PATH "irlt-front"
#endif
#ifndef IRLT_SERVE_PATH
#define IRLT_SERVE_PATH "irlt-serve"
#endif
#ifndef IRLT_SERVECTL_PATH
#define IRLT_SERVECTL_PATH "irlt-servectl"
#endif

struct RunResult {
  int ExitCode;
  std::string Output;
};

/// Runs a foreground command (servectl invocations) capturing stdout, or
/// whatever \p Redirect sends into the pipe.
RunResult run(const std::string &Cmd, const char *Redirect = " 2>/dev/null") {
  FILE *Pipe = popen((Cmd + Redirect).c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  std::string Out;
  std::array<char, 4096> Buf;
  size_t Got;
  while ((Got = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    Out.append(Buf.data(), Got);
  int Status = pclose(Pipe);
  return RunResult{WEXITSTATUS(Status), Out};
}

std::string tmpFile(const std::string &Name) {
  return ::testing::TempDir() + "irlt_fronttool_" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// A front started in the background through the shell; the pid is the
/// front's own (echo $! of the exec'd binary).
struct Daemon {
  pid_t Pid = -1;
  std::string OutFile;
  std::string Sock;
};

/// Starts irlt-front detached with \p Extra appended to the command line.
Daemon startFront(const std::string &Tag, const std::string &Extra) {
  Daemon D;
  D.Sock = tmpFile(Tag + ".sock");
  D.OutFile = tmpFile(Tag + ".out");
  std::remove(D.Sock.c_str());
  std::string Cmd = std::string("exec ") + IRLT_FRONT_PATH + " --socket " +
                    D.Sock + " --serve-bin " + IRLT_SERVE_PATH + " " + Extra +
                    " > " + D.OutFile + " 2>&1 & echo $!";
  FILE *Pipe = popen(("sh -c '" + Cmd + "'").c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  if (!Pipe)
    return D;
  long Pid = -1;
  if (std::fscanf(Pipe, "%ld", &Pid) != 1)
    Pid = -1;
  pclose(Pipe);
  D.Pid = static_cast<pid_t>(Pid);
  EXPECT_GT(D.Pid, 0);
  RunResult Ping = run(std::string(IRLT_SERVECTL_PATH) + " --socket " +
                       D.Sock + " ping --retry 300");
  EXPECT_EQ(Ping.ExitCode, 0) << "front never came up: " << slurp(D.OutFile);
  return D;
}

/// Signals the front and waits for it to exit (its stdout records are
/// then complete in OutFile).
void stopFront(Daemon &D, int Sig = SIGTERM) {
  ASSERT_GT(D.Pid, 0);
  ASSERT_EQ(::kill(D.Pid, Sig), 0);
  for (int I = 0; I < 3000; ++I) { // up to 30s: workers drain too
    if (::kill(D.Pid, 0) != 0 && errno == ESRCH)
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "front did not exit after signal " << Sig << "\n"
         << slurp(D.OutFile);
}

std::string ctl(const Daemon &D, const std::string &Rest) {
  return std::string(IRLT_SERVECTL_PATH) + " --socket " + D.Sock +
         " --timeout-ms 60000 " + Rest;
}

/// An explicit-id, all-ok corpus (retry-safe: no positional default ids,
/// so a retried line renders the identical record). The "kill-mark" line
/// is a normal request in a fault-free run and the crash trigger under
/// --fault worker-kill.
std::string writeCorpus(const std::string &Tag) {
  const char *Matmul =
      R"("arrays B, C\ndo i = 1, n\n  do j = 1, n\n    do k = 1, n\n      A(i, j) += B(i, k) * C(k, j)\n    enddo\n  enddo\nenddo\n")";
  std::string Path = tmpFile(Tag + ".ndjson");
  std::ofstream Out(Path);
  Out << R"({"id": "a", "nest": )" << Matmul
      << R"(, "script": "block 1 3 8 8 8", "emit": "loop"})" << "\n"
      << R"({"id": "kill-mark", "nest": )" << Matmul
      << R"(, "script": "interchange 1 2"})" << "\n";
  for (int I = 0; I < 12; ++I)
    Out << R"({"id": "q)" << I << R"(", "nest": )" << Matmul
        << R"(, "script": "block 1 3 8 8 8", "reduce": true})" << "\n";
  return Path;
}

/// Finds the first record of kind \p Kind in a front's stdout file.
ErrorOr<json::JsonValue> toolRecord(const std::string &OutFile,
                                    const std::string &Kind) {
  std::string Text = slurp(OutFile);
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Text.size();
    std::string Line = Text.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    ErrorOr<json::JsonValue> V = json::JsonValue::parse(Line);
    if (static_cast<bool>(V) && V->stringOr("record") == Kind)
      return V;
  }
  return Failure(Diag::error("no '" + Kind + "' record in " + OutFile +
                             ":\n" + Text));
}

} // namespace

TEST(FrontTool, LifecycleDrainsAndJournalWarmRestartReplaysByteIdentical) {
  std::string Corpus = writeCorpus("lifecycle");
  std::string Journal = tmpFile("lifecycle.journal");
  for (int I = 0; I < 3; ++I)
    std::remove((Journal + ".shard" + std::to_string(I)).c_str());

  Daemon A = startFront("lc_a", "--shards 3 --persist " + Journal);
  auto Serving = toolRecord(A.OutFile, "serving");
  ASSERT_TRUE(static_cast<bool>(Serving)) << Serving.message();
  EXPECT_EQ(Serving->intOr("shards", 0), 3);

  RunResult SendA = run(ctl(A, "send " + Corpus));
  EXPECT_EQ(SendA.ExitCode, 0) << SendA.Output;
  EXPECT_FALSE(SendA.Output.empty());

  // The persist op fans out to every worker and aggregates.
  RunResult Persist = run(ctl(A, "persist"));
  EXPECT_EQ(Persist.ExitCode, 0) << Persist.Output;
  ErrorOr<json::JsonValue> PV = json::JsonValue::parse(
      Persist.Output.substr(0, Persist.Output.find('\n')));
  ASSERT_TRUE(static_cast<bool>(PV)) << Persist.Output;
  EXPECT_NE(PV->intOr("entries", 0), 0);

  stopFront(A, SIGTERM);
  auto DrainedA = toolRecord(A.OutFile, "drained");
  ASSERT_TRUE(static_cast<bool>(DrainedA)) << DrainedA.message();
  EXPECT_EQ(DrainedA->intOr("clean_worker_exits", -1), 3);
  EXPECT_EQ(DrainedA->intOr("write_failures", -1), 0);
  EXPECT_GE(DrainedA->intOr("persisted_entries", 0), 1);

  // Restart on the same journal base: each worker replays its own shard
  // journal and the corpus serves byte-identically against the restored
  // caches (routing is deterministic, so every key returns to the shard
  // that journaled it).
  Daemon B = startFront("lc_b", "--shards 3 --persist " + Journal);
  RunResult SendB = run(ctl(B, "send " + Corpus));
  EXPECT_EQ(SendB.ExitCode, 0);
  EXPECT_EQ(SendB.Output, SendA.Output)
      << "restored-cache responses diverged from the first run";
  stopFront(B, SIGINT); // SIGINT drains identically
  auto DrainedB = toolRecord(B.OutFile, "drained");
  ASSERT_TRUE(static_cast<bool>(DrainedB)) << DrainedB.message();
  EXPECT_EQ(DrainedB->intOr("write_failures", -1), 0);
}

TEST(FrontTool, KillWorkerUnderLoadConvergesWithRetryByteIdentical) {
  std::string Corpus = writeCorpus("kill");

  // Uncontended baseline: same corpus, no fault. The kill-mark line is
  // an ordinary request here.
  Daemon A = startFront("kill_base", "--shards 3");
  RunResult Base = run(ctl(A, "send " + Corpus));
  EXPECT_EQ(Base.ExitCode, 0) << Base.Output;
  stopFront(A);

  // Faulted run: the marker crashes its worker mid-corpus. Every
  // response still arrives (structured rejects, never a hang), and with
  // --retry-overloaded the stream converges to the baseline bytes.
  Daemon B = startFront("kill_fault",
                        "--shards 3 --backoff-ms 50 --fault worker-kill");
  RunResult NoRetry = run(ctl(B, "send " + Corpus));
  EXPECT_EQ(NoRetry.ExitCode, 2)
      << "the stranded requests must surface as error records";
  EXPECT_NE(NoRetry.Output.find("\"kind\":\"shard_down\""), std::string::npos)
      << NoRetry.Output;
  size_t Lines = 0;
  for (char C : NoRetry.Output)
    Lines += C == '\n';
  EXPECT_EQ(Lines, 14u) << "every request gets exactly one response";

  RunResult Retried = run(ctl(B, "send " + Corpus + " --retry-overloaded"));
  EXPECT_EQ(Retried.ExitCode, 0) << Retried.Output;
  EXPECT_EQ(Retried.Output, Base.Output)
      << "retried stream must converge to the uncontended bytes";

  // The front survived two worker crashes and still drains cleanly.
  EXPECT_EQ(run(ctl(B, "ping")).ExitCode, 0);
  stopFront(B);
  auto Drained = toolRecord(B.OutFile, "drained");
  ASSERT_TRUE(static_cast<bool>(Drained)) << Drained.message();
  EXPECT_GE(Drained->intOr("restarts", 0), 2);
  EXPECT_GE(Drained->intOr("shard_down_rejects", 0), 1);
  EXPECT_EQ(Drained->intOr("write_failures", -1), 0);
}

TEST(FrontTool, FaultListModeExitsZeroForBothDaemons) {
  RunResult F = run(std::string(IRLT_FRONT_PATH) + " --fault list");
  EXPECT_EQ(F.ExitCode, 0);
  EXPECT_NE(F.Output.find("worker-kill"), std::string::npos) << F.Output;
  EXPECT_NE(F.Output.find("worker-hang"), std::string::npos) << F.Output;

  RunResult S = run(std::string(IRLT_SERVE_PATH) + " --fault list");
  EXPECT_EQ(S.ExitCode, 0);
  EXPECT_NE(S.Output.find("worker-throw"), std::string::npos) << S.Output;

  RunResult E = run(std::string("IRLT_FAULT=list ") + IRLT_FRONT_PATH);
  EXPECT_EQ(E.ExitCode, 0);
  EXPECT_NE(E.Output.find("worker-slow-start"), std::string::npos) << E.Output;
}

TEST(FrontTool, SlowStartingWorkersAreWaitedForAtStartup) {
  // worker-slow-start delays every worker's bind by ~1s; the front's
  // bounded startup probing must absorb it and still come up healthy.
  Daemon D = startFront("slowstart", "--shards 2 --fault worker-slow-start");
  RunResult Ping = run(ctl(D, "ping"));
  EXPECT_EQ(Ping.ExitCode, 0) << Ping.Output;
  stopFront(D);
  auto Drained = toolRecord(D.OutFile, "drained");
  ASSERT_TRUE(static_cast<bool>(Drained)) << Drained.message();
  EXPECT_EQ(Drained->intOr("clean_worker_exits", -1), 2);
}

TEST(FrontTool, UsageErrorsExitOne) {
  EXPECT_EQ(run(std::string(IRLT_FRONT_PATH) + " --frobnicate").ExitCode, 1);
  EXPECT_EQ(run(std::string(IRLT_FRONT_PATH) + " --shards 0").ExitCode, 1);
  EXPECT_EQ(run(std::string(IRLT_FRONT_PATH) + " --socket x --shards 65")
                .ExitCode,
            1);
  EXPECT_EQ(run(std::string(IRLT_FRONT_PATH) + " --fault no-such").ExitCode,
            1);
  // A rejected value prints exactly one error line naming its flag.
  for (std::string Flag :
       {"--queue-cap 0", "--max-conns 0", "--max-frame-bytes 0",
        "--window-cap 0", "--backoff-ms 0", "--backoff-max-ms 0",
        "--startup-timeout-ms 0", "--port x"}) {
    RunResult R =
        run(std::string(IRLT_FRONT_PATH) + " " + Flag, " 2>&1 >/dev/null");
    EXPECT_EQ(R.ExitCode, 1) << Flag;
    std::string Name = Flag.substr(0, Flag.find(' '));
    EXPECT_TRUE(R.Output.starts_with("error: " + Name + " expects "))
        << Flag << ": " << R.Output;
    EXPECT_EQ(std::count(R.Output.begin(), R.Output.end(), '\n'), 1)
        << Flag << ": " << R.Output;
  }
}

TEST(FrontTool, JournalCapZeroReachesTheWorkers) {
  // Six distinct nests through one shard whose caches hold two entries:
  // --journal-cap 0 (unbounded) must reach the worker, whose journal then
  // keeps all six, as a direct irlt-serve's does.
  std::string Corpus = tmpFile("jcap.ndjson");
  {
    std::ofstream Out(Corpus);
    for (int K = 1; K <= 6; ++K)
      Out << R"({"id": "j)" << K
          << R"(", "nest": "do i = 1, n\n  a(i) = a(i - )" << K
          << R"()\nenddo\n", "script": ""})" << "\n";
  }
  std::string Journal = tmpFile("jcap.journal");
  std::remove((Journal + ".shard0").c_str());
  Daemon D = startFront("jcap", "--shards 1 --cache-cap 2 --journal-cap 0 "
                                "--persist " + Journal);
  RunResult Send = run(ctl(D, "send " + Corpus));
  EXPECT_EQ(Send.ExitCode, 0) << Send.Output;
  RunResult Stats = run(ctl(D, "stats"));
  stopFront(D);
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(
      Stats.Output.substr(0, Stats.Output.find('\n')));
  ASSERT_TRUE(static_cast<bool>(V)) << Stats.Output;
  const json::JsonValue *Status = V->find("shard_status");
  ASSERT_TRUE(Status && Status->isArray() && Status->elements().size() == 1)
      << Stats.Output;
  const json::JsonValue *Worker = Status->elements()[0].find("worker");
  ASSERT_NE(Worker, nullptr) << Stats.Output;
  EXPECT_EQ(Worker->intOr("journal_entries", -1), 6) << Stats.Output;
}
