//===- tests/driver/ServeToolTest.cpp - irlt-serve end to end -------------===//
//
// Drives the irlt-serve daemon and the irlt-servectl client as real
// subprocesses: the SIGTERM drain lifecycle, crash-safe journal
// persistence (including a SIGKILL-mid-dump stand-in), byte-identical
// replay after restart, and the client-side fault matrix. Binary paths
// come from the build system (IRLT_SERVE_PATH / IRLT_SERVECTL_PATH).
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
  return ::testing::TempDir() + "irlt_servetool_" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// A daemon started in the background through the shell; the pid is the
/// daemon's own (echo $! of the exec'd binary).
struct Daemon {
  pid_t Pid = -1;
  std::string OutFile;
  std::string Sock;

  bool alive() const { return Pid > 0 && ::kill(Pid, 0) == 0; }
};

/// Starts irlt-serve detached; \p Extra is appended to the command line,
/// \p Env (optional) is prefixed ("IRLT_FAULT=worker-throw").
Daemon startDaemon(const std::string &Tag, const std::string &Extra,
                   const std::string &Env = "") {
  Daemon D;
  D.Sock = tmpFile(Tag + ".sock");
  D.OutFile = tmpFile(Tag + ".out");
  std::remove(D.Sock.c_str());
  std::string Cmd = Env + (Env.empty() ? "" : " ") + "exec " +
                    IRLT_SERVE_PATH + " --socket " + D.Sock + " " + Extra +
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
  // Wait until the daemon answers (retry connects every 50 ms).
  RunResult Ping = run(std::string(IRLT_SERVECTL_PATH) + " --socket " +
                       D.Sock + " ping --retry 200");
  EXPECT_EQ(Ping.ExitCode, 0) << "daemon never came up: " << slurp(D.OutFile);
  return D;
}

/// Signals the daemon and waits for it to exit (its stdout records are
/// then complete in OutFile).
void stopDaemon(Daemon &D, int Sig = SIGTERM) {
  ASSERT_GT(D.Pid, 0);
  ASSERT_EQ(::kill(D.Pid, Sig), 0);
  for (int I = 0; I < 1500; ++I) { // up to 15s
    if (::kill(D.Pid, 0) != 0 && errno == ESRCH)
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "daemon did not exit after signal " << Sig << "\n"
         << slurp(D.OutFile);
}

/// Waits for a daemon that is expected to die on its own (dump-partial).
bool waitGone(const Daemon &D, int Millis) {
  for (int I = 0; I < Millis / 10; ++I) {
    if (::kill(D.Pid, 0) != 0 && errno == ESRCH)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

std::string ctl(const Daemon &D, const std::string &Rest) {
  // Generous default timeout: auto-search requests can take several
  // seconds on a loaded ctest -j machine. Per-call "--timeout-ms N" in
  // Rest still wins (the later flag overrides).
  return std::string(IRLT_SERVECTL_PATH) + " --socket " + D.Sock +
         " --timeout-ms 60000 " + Rest;
}

/// The all-ok request corpus (so servectl send exits 0 and the output is
/// byte-comparable across runs).
std::string writeCorpus(const std::string &Tag) {
  std::string Path = tmpFile(Tag + ".ndjson");
  std::ofstream Out(Path);
  Out << R"({"id": "a", "nest": "arrays B, C\ndo i = 1, n\n  do j = 1, n\n    do k = 1, n\n      A(i, j) += B(i, k) * C(k, j)\n    enddo\n  enddo\nenddo\n", "script": "block 1 3 8 8 8", "emit": "loop"})"
      << "\n"
      << R"({"id": "b", "nest": "arrays B, C\ndo i = 1, n\n  do j = 1, n\n    do k = 1, n\n      A(i, j) += B(i, k) * C(k, j)\n    enddo\n  enddo\nenddo\n", "auto": "locality", "beam": 2, "depth": 1})"
      << "\n"
      << R"({"id": "c", "nest": "do i = 1, n\n  do j = 1, n\n    a(i, j) = a(i, j) + 1\n  enddo\nenddo\n", "script": "interchange 1 2", "emit": "loop"})"
      << "\n";
  return Path;
}

/// Finds the "drained" (or "serving") record in a daemon's stdout file.
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

TEST(ServeTool, SigtermDrainPersistsAndRestartReplaysByteIdentical) {
  std::string Corpus = writeCorpus("lifecycle");
  std::string Journal = tmpFile("lifecycle.journal");
  std::remove(Journal.c_str());

  Daemon A = startDaemon("lc_a", "--jobs 2 --persist " + Journal);
  RunResult SendA = run(ctl(A, "send " + Corpus));
  EXPECT_EQ(SendA.ExitCode, 0) << SendA.Output;
  EXPECT_FALSE(SendA.Output.empty());
  stopDaemon(A, SIGTERM);

  auto DrainedA = toolRecord(A.OutFile, "drained");
  ASSERT_TRUE(static_cast<bool>(DrainedA)) << DrainedA.message();
  EXPECT_EQ(DrainedA->intOr("write_failures", -1), 0);
  EXPECT_GE(DrainedA->intOr("persisted_entries", 0), 2);
  EXPECT_TRUE(std::ifstream(Journal).good()) << "journal must exist";

  // Restart on the same journal: replay must rewarm, and the same corpus
  // must serve byte-identically against the restored cache.
  Daemon B = startDaemon("lc_b", "--jobs 2 --persist " + Journal);
  auto ServingB = toolRecord(B.OutFile, "serving");
  ASSERT_TRUE(static_cast<bool>(ServingB)) << ServingB.message();
  EXPECT_TRUE(ServingB->boolOr("journal_found", false));
  EXPECT_GE(ServingB->intOr("journal_replayed", 0), 2);
  EXPECT_EQ(ServingB->intOr("journal_discarded", -1), 0);

  RunResult SendB = run(ctl(B, "send " + Corpus));
  EXPECT_EQ(SendB.ExitCode, 0);
  EXPECT_EQ(SendB.Output, SendA.Output)
      << "restored-cache responses diverged from the first run";
  stopDaemon(B, SIGINT); // SIGINT drains identically
  auto DrainedB = toolRecord(B.OutFile, "drained");
  ASSERT_TRUE(static_cast<bool>(DrainedB)) << DrainedB.message();
  EXPECT_EQ(DrainedB->intOr("write_failures", -1), 0);
}

TEST(ServeTool, DumpPartialCrashLeavesPreviousJournalIntact) {
  std::string Corpus = writeCorpus("crash");
  std::string Journal = tmpFile("crash.journal");
  std::remove(Journal.c_str());

  // Run 1: produce a complete journal.
  Daemon A = startDaemon("crash_a", "--persist " + Journal);
  RunResult SendA = run(ctl(A, "send " + Corpus));
  EXPECT_EQ(SendA.ExitCode, 0);
  stopDaemon(A);
  std::string Golden = slurp(Journal);
  ASSERT_FALSE(Golden.empty());

  // Run 2: same journal, dump-partial armed. The persist op makes the
  // daemon _exit() halfway through the temp file - the deterministic
  // SIGKILL-mid-dump stand-in. The rename never happens.
  Daemon B = startDaemon("crash_b",
                         "--persist " + Journal + " --fault dump-partial");
  RunResult SendB = run(ctl(B, "send " + Corpus));
  EXPECT_EQ(SendB.ExitCode, 0);
  run(ctl(B, "--timeout-ms 10000 persist")); // daemon dies mid-dump
  ASSERT_TRUE(waitGone(B, 15000)) << "dump-partial daemon should have died";

  EXPECT_EQ(slurp(Journal), Golden)
      << "a torn dump must never replace the previous complete journal";

  // Run 3: recovery. The intact journal replays fully; responses match
  // run 1 byte for byte.
  Daemon C = startDaemon("crash_c", "--persist " + Journal);
  auto Serving = toolRecord(C.OutFile, "serving");
  ASSERT_TRUE(static_cast<bool>(Serving)) << Serving.message();
  EXPECT_TRUE(Serving->boolOr("journal_found", false));
  EXPECT_GE(Serving->intOr("journal_replayed", 0), 2);
  RunResult SendC = run(ctl(C, "send " + Corpus));
  EXPECT_EQ(SendC.Output, SendA.Output);
  stopDaemon(C);
}

TEST(ServeTool, CorruptJournalDiscardsEntriesButStillStarts) {
  std::string Corpus = writeCorpus("corrupt");
  std::string Journal = tmpFile("corrupt.journal");
  std::remove(Journal.c_str());

  Daemon A = startDaemon("corrupt_a", "--persist " + Journal);
  run(ctl(A, "send " + Corpus));
  stopDaemon(A);

  // cache-corrupt mangles every entry line at load: all discarded, the
  // daemon starts cold - availability is never hostage to the journal.
  Daemon B = startDaemon("corrupt_b", "--persist " + Journal +
                                          " --fault cache-corrupt");
  auto Serving = toolRecord(B.OutFile, "serving");
  ASSERT_TRUE(static_cast<bool>(Serving)) << Serving.message();
  EXPECT_TRUE(Serving->boolOr("journal_found", false));
  EXPECT_EQ(Serving->intOr("journal_replayed", -1), 0);
  EXPECT_GE(Serving->intOr("journal_discarded", 0), 2);
  RunResult Send = run(ctl(B, "send " + Corpus));
  EXPECT_EQ(Send.ExitCode, 0) << "cold start still serves";
  stopDaemon(B);
}

TEST(ServeTool, FaultMatrixGetsStructuredRejectsWithoutHangingTheDaemon) {
  Daemon D = startDaemon("faults", "--jobs 2");
  const char *Kinds[] = {"truncated-frame", "lying-length", "garbage-frame",
                         "oversized-frame", "slow-client"};
  for (const char *K : Kinds) {
    RunResult R = run(ctl(D, std::string("--timeout-ms 10000 fault ") + K));
    EXPECT_EQ(R.ExitCode, 0) << K << " misbehaved:\n" << R.Output;
    // The daemon survives every broken client.
    EXPECT_EQ(run(ctl(D, "ping")).ExitCode, 0) << "daemon down after " << K;
  }
  EXPECT_EQ(run(ctl(D, "fault no-such-kind")).ExitCode, 1);
  stopDaemon(D);
  auto Drained = toolRecord(D.OutFile, "drained");
  ASSERT_TRUE(static_cast<bool>(Drained)) << Drained.message();
  EXPECT_GE(Drained->intOr("bad_frames", 0), 3)
      << "the broken-frame kinds must be counted";
  EXPECT_EQ(Drained->intOr("write_failures", -1), 0);
}

TEST(ServeTool, WorkerThrowViaEnvironmentYieldsInternalRecord) {
  std::string Path = tmpFile("boom.ndjson");
  {
    std::ofstream Out(Path);
    Out << R"({"id": "boom-1", "nest": "do i = 1, n\n  a(i) = 0\nenddo\n", "script": "reverse 1"})"
        << "\n";
  }
  Daemon D = startDaemon("boom", "", "IRLT_FAULT=worker-throw");
  RunResult R = run(ctl(D, "send " + Path));
  EXPECT_EQ(R.ExitCode, 2) << "an internal error response is an error exit";
  EXPECT_NE(R.Output.find("\"kind\":\"internal\""), std::string::npos)
      << R.Output;
  // Only marker ids throw; the daemon still serves and drains cleanly.
  EXPECT_EQ(run(ctl(D, "ping")).ExitCode, 0);
  stopDaemon(D);
  auto Drained = toolRecord(D.OutFile, "drained");
  ASSERT_TRUE(static_cast<bool>(Drained)) << Drained.message();
  EXPECT_EQ(Drained->intOr("errors", 0), 1);
}

TEST(ServeTool, StatsOpReportsReconcilingCounters) {
  std::string Corpus = writeCorpus("stats");
  Daemon D = startDaemon("stats", "--cache-cap 1");
  run(ctl(D, "send " + Corpus));
  RunResult R = run(ctl(D, "stats"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(
      R.Output.substr(0, R.Output.find('\n')));
  ASSERT_TRUE(static_cast<bool>(V)) << R.Output;
  EXPECT_EQ(V->stringOr("record"), "statz");
  stopDaemon(D);
}

TEST(ServeTool, UsageErrorsExitOne) {
  EXPECT_EQ(run(std::string(IRLT_SERVE_PATH) + " --frobnicate").ExitCode, 1);
  EXPECT_EQ(run(std::string(IRLT_SERVE_PATH) + " --jobs 0").ExitCode, 1);
  EXPECT_EQ(run(std::string(IRLT_SERVECTL_PATH) + " ping").ExitCode, 1)
      << "a target (--socket/--port) is required";
  // A rejected value prints exactly one error line naming its flag.
  for (std::string Flag : {"--queue-cap 0", "--max-conns 0",
                           "--max-frame-bytes 0", "--port x"}) {
    RunResult R =
        run(std::string(IRLT_SERVE_PATH) + " " + Flag, " 2>&1 >/dev/null");
    EXPECT_EQ(R.ExitCode, 1) << Flag;
    std::string Name = Flag.substr(0, Flag.find(' '));
    EXPECT_TRUE(R.Output.starts_with("error: " + Name + " expects "))
        << Flag << ": " << R.Output;
    EXPECT_EQ(std::count(R.Output.begin(), R.Output.end(), '\n'), 1)
        << Flag << ": " << R.Output;
  }
}
