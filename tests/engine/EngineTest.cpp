//===- tests/engine/EngineTest.cpp - Batch engine tests -------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "fuzz/Fuzzer.h"
#include "support/Json.h"

#include <gtest/gtest.h>

using namespace irlt;
using namespace irlt::engine;

namespace {

/// A JSON-encoded request line (the nest newlines need escaping).
std::string requestLine(const std::string &Fields) {
  std::string Out = "{";
  Out += Fields;
  Out += '}';
  return Out;
}

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  Out += json::escape(S);
  Out += '"';
  return Out;
}

const char *MatmulEscaped =
    "arrays B, C\\ndo i = 1, n\\n  do j = 1, n\\n    do k = 1, n\\n"
    "      A(i, j) += B(i, k) * C(k, j)\\n    enddo\\n  enddo\\nenddo\\n";

std::vector<std::string> smokeCorpus() {
  std::vector<std::string> Lines;
  Lines.push_back(requestLine(
      std::string("\"id\": \"block\", \"nest\": \"") + MatmulEscaped +
      "\", \"script\": \"block 1 3 8 8 8\", \"emit\": \"loop\""));
  Lines.push_back(""); // blank lines are ignored
  Lines.push_back(requestLine(
      std::string("\"id\": \"auto\", \"nest\": \"") + MatmulEscaped +
      "\", \"auto\": \"locality\", \"beam\": 2, \"depth\": 1"));
  Lines.push_back(requestLine(
      std::string("\"id\": \"illegal\", \"nest\": ") +
      jsonStr("do i = 1, n\n  do j = 1, i\n    a(i, j) = a(i, j) + 1\n"
              "  enddo\nenddo\n") +
      ", \"script\": \"interchange 1 2\""));
  Lines.push_back(requestLine("\"id\": \"bad\", \"script\": \"x\""));
  Lines.push_back("this is not json");
  return Lines;
}

} // namespace

TEST(Wire, ParsesMinimalScriptRequest) {
  ErrorOr<BatchRequest> R = parseRequestLine(
      R"({"nest": "do i = 1, n\n  a(i) = 0\nenddo\n", "script": "reverse 1"})",
      7);
  ASSERT_TRUE(static_cast<bool>(R)) << R.message();
  EXPECT_EQ(R->Id, "7"); // defaults to the line number
  EXPECT_EQ(R->Script, "reverse 1");
  EXPECT_TRUE(R->Auto.empty());
  EXPECT_TRUE(R->Legality);
  EXPECT_FALSE(R->Reduce);
  EXPECT_EQ(R->ValidateBudget, 0u);
}

TEST(Wire, ParsesAutoRequestWithKnobs) {
  ErrorOr<BatchRequest> R = parseRequestLine(
      R"({"id": "a", "nest": "x", "auto": "par", "beam": 3, "depth": 0,)"
      R"( "topk": 2, "validate": 500, "reduce": true, "emit": "c"})",
      1);
  ASSERT_TRUE(static_cast<bool>(R)) << R.message();
  EXPECT_EQ(R->Id, "a");
  EXPECT_EQ(R->Auto, "par");
  EXPECT_EQ(R->Beam, 3u);
  EXPECT_EQ(R->Depth, 0u);
  EXPECT_EQ(R->TopK, 2u);
  EXPECT_EQ(R->ValidateBudget, 500u);
  EXPECT_TRUE(R->Reduce);
  EXPECT_EQ(R->Emit, "c");
}

TEST(Wire, RejectsMalformedRequests) {
  EXPECT_FALSE(static_cast<bool>(parseRequestLine("nonsense", 1)));
  EXPECT_FALSE(static_cast<bool>(parseRequestLine("[1]", 1)));
  EXPECT_FALSE(static_cast<bool>(parseRequestLine(R"({"script": "r 1"})", 1)))
      << "nest is required";
  EXPECT_FALSE(static_cast<bool>(parseRequestLine(
      R"({"nest": "x", "script": "r 1", "auto": "par"})", 1)))
      << "script and auto are exclusive";
  EXPECT_FALSE(static_cast<bool>(
      parseRequestLine(R"({"nest": "x", "auto": "speed"})", 1)));
  EXPECT_FALSE(static_cast<bool>(
      parseRequestLine(R"({"nest": "x", "emit": "asm"})", 1)));
  EXPECT_FALSE(static_cast<bool>(
      parseRequestLine(R"({"nest": "x", "validate": -1})", 1)));
  EXPECT_FALSE(static_cast<bool>(
      parseRequestLine(R"({"nest": "x", "beam": 0})", 1)));
}

TEST(Engine, ServesCorpusInOrderWithPerRequestErrors) {
  BatchEngine E;
  EngineMetrics M;
  std::string Out = E.runToString(smokeCorpus(), &M);
  std::vector<std::string> Records = splitLines(Out);
  ASSERT_EQ(Records.size(), 5u); // the blank line produced no record

  EXPECT_EQ(M.Requests, 5u);
  EXPECT_EQ(M.Errors, 2u);  // missing nest + non-json line
  EXPECT_EQ(M.Illegal, 1u); // triangular interchange

  // Every record parses under the shared schema, in input order. The two
  // malformed requests fall back to line-number ids (5 and 6): a request
  // whose parse failed cannot be trusted for its "id" field either.
  const char *Ids[] = {"block", "auto", "illegal", "5", "6"};
  for (size_t I = 0; I < Records.size(); ++I) {
    ErrorOr<json::JsonValue> V = json::JsonValue::parse(Records[I]);
    ASSERT_TRUE(static_cast<bool>(V)) << Records[I];
    EXPECT_EQ(V->intOr("schema_version", 0), json::SchemaVersion);
    EXPECT_EQ(V->stringOr("tool"), "irlt-batch");
    EXPECT_EQ(V->stringOr("id"), Ids[I]);
  }

  ErrorOr<json::JsonValue> Block = json::JsonValue::parse(Records[0]);
  ASSERT_TRUE(static_cast<bool>(Block));
  EXPECT_TRUE(Block->boolOr("ok", false));
  EXPECT_TRUE(Block->boolOr("legal", false));
  EXPECT_FALSE(Block->stringOr("output").empty());

  ErrorOr<json::JsonValue> Illegal = json::JsonValue::parse(Records[2]);
  ASSERT_TRUE(static_cast<bool>(Illegal));
  EXPECT_TRUE(Illegal->boolOr("ok", false));
  EXPECT_FALSE(Illegal->boolOr("legal", true));
  EXPECT_NE(Illegal->stringOr("reject_kind"), "none");

  ErrorOr<json::JsonValue> Bad = json::JsonValue::parse(Records[3]);
  ASSERT_TRUE(static_cast<bool>(Bad));
  EXPECT_FALSE(Bad->boolOr("ok", true));
  ASSERT_NE(Bad->find("error"), nullptr);
  EXPECT_FALSE(Bad->find("error")->stringOr("message").empty());
}

TEST(Engine, ResultStreamIsByteIdenticalAcrossJobCounts) {
  // The tentpole determinism contract: same corpus, --jobs 1 vs --jobs 8,
  // byte-identical result stream.
  std::vector<std::string> Corpus = smokeCorpus();
  // Pad with fuzz-generated requests so scheduling actually interleaves.
  fuzz::FuzzOptions FO;
  FO.Cases = 40;
  FO.Seed = 11;
  for (uint64_t I = 0; I < FO.Cases; ++I) {
    fuzz::FuzzCase C = fuzz::generateCase(FO, I);
    std::string Script;
    for (const std::string &L : C.Script) {
      Script += L;
      Script += '\n';
    }
    Corpus.push_back(requestLine("\"nest\": " + jsonStr(C.Nest.render()) +
                                 ", \"script\": " + jsonStr(Script)));
  }

  EngineOptions One;
  One.Jobs = 1;
  EngineOptions Eight;
  Eight.Jobs = 8;
  std::string OutOne = BatchEngine(One).runToString(Corpus);
  std::string OutEight = BatchEngine(Eight).runToString(Corpus);
  EXPECT_EQ(OutOne, OutEight);

  // And a shared engine re-serving the corpus (warm caches) agrees too.
  BatchEngine Shared(Eight);
  std::string Cold = Shared.runToString(Corpus);
  std::string Warm = Shared.runToString(Corpus);
  EXPECT_EQ(Cold, Warm);
  EXPECT_EQ(Cold, OutOne);
}

TEST(Engine, CachedAndUncachedVerdictsAgreeOnFuzzCorpus) {
  // Cache-correctness: verdicts with caching on and off agree across a
  // 500-case fuzz corpus (the ISSUE acceptance bar). Runs as one batch
  // through each engine configuration; records carry no timing, so the
  // streams must match byte for byte.
  fuzz::FuzzOptions FO;
  FO.Cases = 500;
  FO.Seed = 3;
  std::vector<std::string> Corpus;
  for (uint64_t I = 0; I < FO.Cases; ++I) {
    fuzz::FuzzCase C = fuzz::generateCase(FO, I);
    std::string Script;
    for (const std::string &L : C.Script) {
      Script += L;
      Script += '\n';
    }
    Corpus.push_back(requestLine("\"id\": \"c" + std::to_string(I) +
                                 "\", \"nest\": " + jsonStr(C.Nest.render()) +
                                 ", \"script\": " + jsonStr(Script)));
  }

  EngineOptions CacheOn;
  CacheOn.Jobs = 4;
  EngineOptions CacheOff;
  CacheOff.Jobs = 4;
  CacheOff.EnableCache = false;

  EngineMetrics MOn, MOff;
  std::string On = BatchEngine(CacheOn).runToString(Corpus, &MOn);
  std::string Off = BatchEngine(CacheOff).runToString(Corpus, &MOff);
  EXPECT_EQ(On, Off);

  // The corpus repeats generated shapes, so the cache must actually fire
  // (otherwise this test proves nothing).
  EXPECT_GT(MOn.Cache.DepHits, 0u);
  EXPECT_EQ(MOff.Cache.DepHits + MOff.Cache.DepMisses, 0u);
  EXPECT_EQ(MOn.Requests, 500u);
}

TEST(Engine, MetricsRecordIsSchemaValid) {
  BatchEngine E;
  EngineMetrics M;
  E.runToString(smokeCorpus(), &M);
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(M.toJson());
  ASSERT_TRUE(static_cast<bool>(V)) << M.toJson();
  EXPECT_EQ(V->intOr("schema_version", 0), json::SchemaVersion);
  EXPECT_EQ(V->stringOr("record"), "metrics");
  EXPECT_EQ(V->intOr("requests", 0), 5);
  ASSERT_NE(V->find("dep_cache"), nullptr);
  ASSERT_NE(V->find("stages"), nullptr);
  EXPECT_EQ(V->find("stages")->elements().size(), NumStages);
  for (const json::JsonValue &S : V->find("stages")->elements())
    EXPECT_FALSE(S.stringOr("name").empty());
}

TEST(Engine, SplitLinesHandlesMissingTrailingNewline) {
  std::vector<std::string> L = splitLines("a\nb\nc");
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[2], "c");
  EXPECT_TRUE(splitLines("").empty());
  EXPECT_EQ(splitLines("x\n").size(), 1u);
}

TEST(Engine, OversizedLineDegradesWithoutEchoingContent) {
  EngineOptions O;
  O.MaxLineBytes = 256; // above the valid request below, under the big one
  BatchEngine E(O);
  // The oversized line carries a marker that must never appear in any
  // output record (a hostile line must not be reflected back).
  std::string Marker = "SECRET_PAYLOAD_DO_NOT_ECHO";
  std::vector<std::string> Lines;
  Lines.push_back(requestLine("\"id\": \"big\", \"nest\": \"" + Marker +
                              std::string(400, 'x') + "\""));
  Lines.push_back(requestLine(
      std::string("\"id\": \"after\", \"nest\": \"") + MatmulEscaped +
      "\", \"script\": \"interchange 1 2\""));
  EngineMetrics M;
  std::string Out = E.runToString(Lines, &M);
  EXPECT_EQ(Out.find(Marker), std::string::npos);

  std::vector<std::string> Recs;
  for (std::string &L : splitLines(Out))
    Recs.push_back(std::move(L));
  ASSERT_EQ(Recs.size(), 2u);
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(Recs[0]);
  ASSERT_TRUE(static_cast<bool>(V)) << Recs[0];
  EXPECT_FALSE(V->boolOr("ok", true));
  ASSERT_NE(V->find("error"), nullptr);
  EXPECT_EQ(V->find("error")->stringOr("kind"), "oversized_line");
  ErrorOr<json::JsonValue> W = json::JsonValue::parse(Recs[1]);
  ASSERT_TRUE(static_cast<bool>(W)) << Recs[1];
  EXPECT_TRUE(W->boolOr("ok", false)) << "the rest of the batch continues";
  EXPECT_EQ(M.Errors, 1u);
}

TEST(Engine, EmbeddedNulDegradesToStructuredRecord) {
  BatchEngine E;
  std::string Line = requestLine("\"id\": \"nul\", \"script\": \"x\"");
  Line.insert(Line.size() / 2, 1, '\0');
  std::string Out = E.runToString({Line});
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(splitLines(Out)[0]);
  ASSERT_TRUE(static_cast<bool>(V)) << Out;
  EXPECT_FALSE(V->boolOr("ok", true));
  ASSERT_NE(V->find("error"), nullptr);
  EXPECT_EQ(V->find("error")->stringOr("kind"), "embedded_nul");
}

TEST(Engine, CrlfCorpusServesIdenticallyToLf) {
  std::vector<std::string> Base = smokeCorpus();
  std::string Lf, CrLf;
  for (const std::string &L : Base) {
    Lf += L + "\n";
    CrLf += L + "\r\n";
  }
  BatchEngine E1, E2;
  EXPECT_EQ(E1.runToString(splitLines(Lf)),
            E2.runToString(splitLines(CrLf)));
}

TEST(Engine, TruncatedFinalLineDegradesToRequestError) {
  // An ndjson file cut off mid-record (torn write, partial download):
  // the prefix serves normally, the torn tail is one structured error.
  std::string Whole =
      requestLine(std::string("\"id\": \"whole\", \"nest\": \"") +
                  MatmulEscaped + "\", \"script\": \"interchange 1 2\"");
  std::string Torn = Whole.substr(0, Whole.size() / 2);
  BatchEngine E;
  std::string Out = E.runToString({Whole, Torn});
  std::vector<std::string> Recs = splitLines(Out);
  ASSERT_EQ(Recs.size(), 2u);
  EXPECT_TRUE(json::JsonValue::parse(Recs[0])->boolOr("ok", false));
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(Recs[1]);
  ASSERT_TRUE(static_cast<bool>(V)) << Recs[1];
  EXPECT_FALSE(V->boolOr("ok", true));
  ASSERT_NE(V->find("error"), nullptr);
  EXPECT_EQ(V->find("error")->stringOr("kind"), "request");
}

TEST(Engine, CacheCapacityNeverChangesTheResultStream) {
  std::vector<std::string> Lines;
  for (int I = 0; I < 3; ++I) {
    std::vector<std::string> C = smokeCorpus();
    Lines.insert(Lines.end(), C.begin(), C.end());
  }
  EngineOptions Unbounded;
  EngineOptions Tiny;
  Tiny.CacheCapacity = 1;
  EngineOptions Off;
  Off.EnableCache = false;
  BatchEngine EU(Unbounded), ET(Tiny), EO(Off);
  EngineMetrics MU, MT;
  std::string Ref = EU.runToString(Lines, &MU);
  EXPECT_EQ(ET.runToString(Lines, &MT), Ref);
  EXPECT_EQ(EO.runToString(Lines), Ref);

  // The bounded run really churned, and its counters reconcile.
  EXPECT_GT(MT.Cache.DepEvictions, 0u);
  EXPECT_EQ(MT.Cache.DepHits + MT.Cache.DepMisses, MT.Cache.DepLookups);
  EXPECT_EQ(MT.Cache.DepInserts - MT.Cache.DepEvictions,
            MT.Cache.DepEntries);
  EXPECT_EQ(MT.Cache.LegalityHits + MT.Cache.LegalityMisses,
            MT.Cache.LegalityLookups);
  EXPECT_EQ(MT.Cache.LegalityInserts - MT.Cache.LegalityEvictions,
            MT.Cache.LegalityEntries);
  EXPECT_LE(MT.Cache.DepEntries, 1u);
  // The unbounded run must have had real hits for this comparison to
  // mean anything.
  EXPECT_GT(MU.Cache.DepHits, 0u);
}

TEST(Engine, StopFlagYieldsCleanPrefixAndInterruptedMetrics) {
  std::atomic<bool> Stop{true}; // set before the run: everything skipped
  EngineOptions O;
  O.StopFlag = &Stop;
  BatchEngine E(O);
  std::vector<std::string> Sunk;
  EngineMetrics M = E.run(smokeCorpus(), [&](const std::string &R) {
    Sunk.push_back(R);
  });
  EXPECT_TRUE(M.Interrupted);
  EXPECT_EQ(M.Served, Sunk.size());
  EXPECT_EQ(M.Served, 0u);
  EXPECT_EQ(M.Requests, 5u) << "the corpus size is still reported";
}

TEST(Engine, WorkerThrowFaultDegradesToInternalRecord) {
  EngineOptions O;
  O.Faults.WorkerThrow = true;
  BatchEngine E(O);
  std::vector<std::string> Lines;
  Lines.push_back(requestLine(
      std::string("\"id\": \"boom-1\", \"nest\": \"") + MatmulEscaped +
      "\", \"script\": \"interchange 1 2\""));
  Lines.push_back(requestLine(
      std::string("\"id\": \"calm\", \"nest\": \"") + MatmulEscaped +
      "\", \"script\": \"interchange 1 2\""));
  std::string Out = E.runToString(Lines);
  std::vector<std::string> Recs = splitLines(Out);
  ASSERT_EQ(Recs.size(), 2u);
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(Recs[0]);
  ASSERT_TRUE(static_cast<bool>(V)) << Recs[0];
  ASSERT_NE(V->find("error"), nullptr);
  EXPECT_EQ(V->find("error")->stringOr("kind"), "internal");
  EXPECT_TRUE(json::JsonValue::parse(Recs[1])->boolOr("ok", false))
      << "the fault targets marker ids only";
}

TEST(Engine, RecordsLeaveWithoutWriterSlack) {
  // A record outlives its request (the in-order result buffer, serve
  // replies), so it leaves the engine without the JSON writer's doubling
  // slack.
  api::Pipeline P;
  EngineOptions O;
  StageSampler S;
  std::vector<std::string> Lines = smokeCorpus();
  // The block script, the auto request and the missing-nest error.
  for (size_t I : {0u, 2u, 4u}) {
    RequestOutcome Out = processRequest(P, O, Lines[I], I + 1, S);
    ASSERT_FALSE(Out.Record.empty()) << Lines[I];
    EXPECT_LT(Out.Record.capacity() - Out.Record.size(), 16u) << Out.Record;
  }
  std::string Err = makeErrorRecord("irlt-batch", "x", errkind::Request,
                                    "a message long enough to grow the "
                                    "writer's buffer several times over");
  EXPECT_LT(Err.capacity() - Err.size(), 16u) << Err;
}
