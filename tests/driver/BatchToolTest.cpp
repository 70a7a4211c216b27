//===- tests/driver/BatchToolTest.cpp - irlt-batch end to end -------------===//
//
// Drives the irlt-batch binary as a subprocess: ndjson corpus in, one
// versioned JSON record per request out, byte-identical across --jobs
// values. The binary path comes from the build system (IRLT_BATCH_PATH).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace irlt;

namespace {

#ifndef IRLT_BATCH_PATH
#define IRLT_BATCH_PATH "irlt-batch"
#endif

struct RunResult {
  int ExitCode;
  std::string Output;
};

RunResult runBatch(const std::string &Args, bool MergeStderr = false) {
  std::string Cmd = std::string(IRLT_BATCH_PATH) + " " + Args +
                    (MergeStderr ? " 2>&1" : " 2>/dev/null");
  FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  std::string Out;
  std::array<char, 4096> Buf;
  size_t Got;
  while ((Got = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    Out.append(Buf.data(), Got);
  int Status = pclose(Pipe);
  return RunResult{WEXITSTATUS(Status), Out};
}

std::string writeCorpus(const std::string &Tag, const std::string &Text) {
  std::string Path = ::testing::TempDir() + "/irlt_batch_" + Tag + ".ndjson";
  std::ofstream Out(Path);
  Out << Text;
  return Path;
}

std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Text.size();
    Out.push_back(Text.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  return Out;
}

const char *Corpus =
    R"({"id": "a", "nest": "do i = 1, n\n  do j = 1, n\n    a(i, j) = a(i, j) + 1\n  enddo\nenddo\n", "script": "interchange 1 2", "emit": "loop"})"
    "\n"
    R"({"id": "b", "nest": "do i = 2, n\n  do j = 1, n\n    a(i, j) = a(i - 1, j) + 1\n  enddo\nenddo\n", "script": "parallelize 2"})"
    "\n"
    R"({"id": "c", "nest": "do i = 1, n\n  a(i) = a(i) + 1\nenddo\n", "auto": "par", "beam": 2, "depth": 1})"
    "\n";

} // namespace

TEST(BatchTool, ServesCorpusWithSchemaValidRecords) {
  std::string Path = writeCorpus("ok", Corpus);
  RunResult R = runBatch(Path + " --jobs 2");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::vector<std::string> Records = lines(R.Output);
  ASSERT_EQ(Records.size(), 3u) << R.Output;
  const char *Ids[] = {"a", "b", "c"};
  for (size_t I = 0; I < Records.size(); ++I) {
    ErrorOr<json::JsonValue> V = json::JsonValue::parse(Records[I]);
    ASSERT_TRUE(static_cast<bool>(V)) << Records[I];
    EXPECT_EQ(V->intOr("schema_version", 0), json::SchemaVersion);
    EXPECT_EQ(V->stringOr("tool"), "irlt-batch");
    EXPECT_EQ(V->stringOr("id"), Ids[I]);
    EXPECT_TRUE(V->boolOr("ok", false)) << Records[I];
  }
}

TEST(BatchTool, OutputIsByteIdenticalAcrossJobCounts) {
  std::string Path = writeCorpus("det", Corpus);
  RunResult One = runBatch(Path + " --jobs 1");
  RunResult Four = runBatch(Path + " --jobs 4");
  RunResult Eight = runBatch(Path + " --jobs 8");
  EXPECT_EQ(One.ExitCode, 0);
  EXPECT_EQ(One.Output, Four.Output);
  EXPECT_EQ(One.Output, Eight.Output);
}

TEST(BatchTool, IllegalSequenceExitsTwo) {
  std::string Path = writeCorpus(
      "illegal",
      R"({"id": "x", "nest": "do i = 2, n\n  do j = 1, n\n    a(i, j) = a(i - 1, j) + 1\n  enddo\nenddo\n", "script": "parallelize 1"})"
      "\n");
  RunResult R = runBatch(Path);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(lines(R.Output)[0]);
  ASSERT_TRUE(static_cast<bool>(V));
  EXPECT_TRUE(V->boolOr("ok", false));
  EXPECT_FALSE(V->boolOr("legal", true));
  EXPECT_EQ(V->stringOr("reject_kind"), "lex-negative");
}

TEST(BatchTool, MalformedRequestExitsTwoWithErrorRecord) {
  std::string Path = writeCorpus("bad", "{\"script\": \"reverse 1\"}\n");
  RunResult R = runBatch(Path);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(lines(R.Output)[0]);
  ASSERT_TRUE(static_cast<bool>(V));
  EXPECT_FALSE(V->boolOr("ok", true));
  ASSERT_NE(V->find("error"), nullptr);
}

TEST(BatchTool, ArithmeticFaultsGiveRecordsNotSignals) {
  // Division by zero in the cost model and in validation, and sqrt of a
  // negative value, once aborted the whole process.
  const char *Div = R"("nest": "arrays b, c\ndo i = 1, n\n  do j = 1, n\n    a(i, j) = b(i, j) / c(j, i)\n  enddo\nenddo\n")";
  std::string Text =
      std::string(R"({"id": "div", )") + Div +
      R"(, "auto": "locality", "beam": 2, "depth": 1})" "\n" +
      R"({"id": "div-validate", )" + Div +
      R"(, "script": "interchange 1 2", "validate": 1000})" "\n" +
      R"({"id": "sqrt", "nest": "arrays b\ndo i = 1, n\n  a(i) = sqrt(b(i) - 1)\nenddo\n", "auto": "locality"})"
      "\n" +
      R"({"id": "after", "nest": "do i = 1, n\n  a(i) = a(i) + 1\nenddo\n", "auto": "locality", "beam": 2, "depth": 1})"
      "\n";
  RunResult R = runBatch(writeCorpus("faults", Text));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  std::vector<std::string> Records = lines(R.Output);
  ASSERT_EQ(Records.size(), 4u) << R.Output;
  const char *Ids[] = {"div", "div-validate", "sqrt", "after"};
  const bool Ok[] = {false, true, false, true};
  for (size_t I = 0; I < Records.size(); ++I) {
    ErrorOr<json::JsonValue> V = json::JsonValue::parse(Records[I]);
    ASSERT_TRUE(static_cast<bool>(V)) << Records[I];
    EXPECT_EQ(V->stringOr("id"), Ids[I]);
    EXPECT_EQ(V->boolOr("ok", !Ok[I]), Ok[I]) << Records[I];
  }
  EXPECT_NE(Records[0].find("\"kind\":\"search\""), std::string::npos);
  EXPECT_NE(Records[1].find("\"status\":\"inconclusive\""), std::string::npos)
      << Records[1];
  EXPECT_NE(Records[1].find("evaluation faulted"), std::string::npos);
  EXPECT_NE(Records[2].find("\"kind\":\"search\""), std::string::npos);
}

TEST(BatchTool, StatsGoToStderrAsMetricsRecord) {
  std::string Path = writeCorpus("stats", Corpus);
  RunResult Clean = runBatch(Path + " --jobs 2 --stats");
  // stdout carries only result records even with --stats on.
  for (const std::string &L : lines(Clean.Output))
    EXPECT_EQ(json::JsonValue::parse(L)->stringOr("record"), "");
  RunResult Merged = runBatch(Path + " --jobs 2 --stats",
                              /*MergeStderr=*/true);
  bool SawMetrics = false;
  for (const std::string &L : lines(Merged.Output)) {
    ErrorOr<json::JsonValue> V = json::JsonValue::parse(L);
    if (static_cast<bool>(V) && V->stringOr("record") == "metrics") {
      SawMetrics = true;
      EXPECT_EQ(V->intOr("requests", 0), 3);
      EXPECT_EQ(V->intOr("jobs", 0), 2);
    }
  }
  EXPECT_TRUE(SawMetrics) << Merged.Output;
}

TEST(BatchTool, ReadsFromStdin) {
  std::string Path = writeCorpus("stdin", Corpus);
  std::string Cmd = std::string(IRLT_BATCH_PATH) + " < " + Path +
                    " 2>/dev/null";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  ASSERT_NE(Pipe, nullptr);
  std::string Out;
  std::array<char, 4096> Buf;
  size_t Got;
  while ((Got = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    Out.append(Buf.data(), Got);
  int Status = pclose(Pipe);
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  EXPECT_EQ(lines(Out).size(), 3u);
}

TEST(BatchTool, UsageErrorsExitOne) {
  EXPECT_EQ(runBatch("--jobs 0", true).ExitCode, 1);
  EXPECT_EQ(runBatch("--frobnicate", true).ExitCode, 1);
  EXPECT_EQ(runBatch("/nonexistent/corpus.ndjson", true).ExitCode, 1);
}

TEST(BatchTool, CacheCapDoesNotChangeTheStream) {
  // Repeat the corpus so the caches actually churn under --cache-cap 1.
  std::string Text;
  for (int I = 0; I < 3; ++I)
    Text += Corpus;
  std::string Path = writeCorpus("cachecap", Text);
  RunResult Unbounded = runBatch(Path);
  RunResult Capped = runBatch(Path + " --cache-cap 1");
  RunResult Off = runBatch(Path + " --no-cache");
  EXPECT_EQ(Unbounded.ExitCode, 0);
  EXPECT_EQ(Capped.Output, Unbounded.Output)
      << "eviction must never change a result record";
  EXPECT_EQ(Off.Output, Unbounded.Output);
}

TEST(BatchTool, MaxLineBytesRejectsWithoutEcho) {
  std::string Marker = "SECRET_PAYLOAD_DO_NOT_ECHO";
  std::string Path = writeCorpus(
      "maxline", "{\"id\": \"big\", \"nest\": \"" + Marker +
                     std::string(300, 'x') + "\"}\n");
  RunResult R = runBatch(Path + " --max-line-bytes 128", true);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_EQ(R.Output.find(Marker), std::string::npos);
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(lines(R.Output)[0]);
  ASSERT_TRUE(static_cast<bool>(V)) << R.Output;
  ASSERT_NE(V->find("error"), nullptr);
  EXPECT_EQ(V->find("error")->stringOr("kind"), "oversized_line");
}

TEST(BatchTool, WorkerThrowFaultViaFlagAndEnv) {
  std::string Path = writeCorpus(
      "boom",
      R"({"id": "boom-1", "nest": "do i = 1, n\n  a(i) = 0\nenddo\n", "script": "reverse 1"})"
      "\n");
  for (const std::string &Cmd :
       {std::string(IRLT_BATCH_PATH) + " " + Path + " --fault worker-throw",
        "IRLT_FAULT=worker-throw " + std::string(IRLT_BATCH_PATH) + " " +
            Path}) {
    FILE *Pipe = popen((Cmd + " 2>/dev/null").c_str(), "r");
    ASSERT_NE(Pipe, nullptr);
    std::string Out;
    std::array<char, 4096> Buf;
    size_t Got;
    while ((Got = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
      Out.append(Buf.data(), Got);
    int Status = pclose(Pipe);
    EXPECT_EQ(WEXITSTATUS(Status), 2) << Cmd << "\n" << Out;
    ErrorOr<json::JsonValue> V = json::JsonValue::parse(lines(Out)[0]);
    ASSERT_TRUE(static_cast<bool>(V)) << Out;
    ASSERT_NE(V->find("error"), nullptr);
    EXPECT_EQ(V->find("error")->stringOr("kind"), "internal");
  }
}

TEST(BatchTool, BadFaultSpecExitsOne) {
  EXPECT_EQ(runBatch("--fault no-such-kind /dev/null", true).ExitCode, 1);
}

TEST(BatchTool, SigintFinishesInFlightAndExitsThree) {
  // A corpus big enough to still be in flight 200ms in; SIGINT must
  // yield a clean record prefix, one "interrupted" marker, and exit 3.
  std::string Text;
  for (int I = 0; I < 200; ++I)
    Text += R"({"id": "s)" + std::to_string(I) +
            R"(", "nest": "arrays B, C\ndo i = 1, n\n  do j = 1, n\n    do k = 1, n\n      A(i, j) += B(i, k) * C(k, j)\n    enddo\n  enddo\nenddo\n", "auto": "locality", "beam": 4, "depth": 2})"
            "\n";
  std::string Path = writeCorpus("sigint", Text);
  std::string Cmd = std::string("sh -c '") + IRLT_BATCH_PATH + " " + Path +
                    " --jobs 1 --no-cache 2>/dev/null & P=$!; sleep 0.3; "
                    "kill -INT $P; wait $P; echo EXIT=$?'";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  ASSERT_NE(Pipe, nullptr);
  std::string Out;
  std::array<char, 4096> Buf;
  size_t Got;
  while ((Got = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    Out.append(Buf.data(), Got);
  pclose(Pipe);

  std::vector<std::string> L = lines(Out);
  ASSERT_GE(L.size(), 2u) << Out;
  EXPECT_EQ(L.back(), "EXIT=3") << Out;
  // Every emitted line before the exit marker is a whole, valid record;
  // the last one is the interruption marker with a consistent count.
  uint64_t ResultLines = 0;
  bool SawMarker = false;
  for (size_t I = 0; I + 1 < L.size(); ++I) {
    ErrorOr<json::JsonValue> V = json::JsonValue::parse(L[I]);
    ASSERT_TRUE(static_cast<bool>(V)) << "torn record: " << L[I];
    if (V->stringOr("record") == "interrupted") {
      SawMarker = true;
      EXPECT_EQ(static_cast<uint64_t>(V->intOr("served", -1)), ResultLines);
      EXPECT_EQ(V->intOr("requests", 0), 200);
      EXPECT_EQ(I + 2, L.size()) << "marker must be the final record";
    } else {
      ++ResultLines;
    }
  }
  EXPECT_TRUE(SawMarker) << Out;
  EXPECT_LT(ResultLines, 200u) << "the run should not have completed";
}
