//===- engine/Engine.cpp - High-throughput batch pipeline engine ---------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "analysis/Analysis.h"
#include "ir/NestHash.h"
#include "support/Json.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

using namespace irlt;
using namespace irlt::engine;

const char *engine::stageName(Stage S) {
  switch (S) {
  case Stage::Parse:
    return "parse";
  case Stage::Deps:
    return "deps";
  case Stage::Plan:
    return "plan";
  case Stage::Legality:
    return "legality";
  case Stage::Apply:
    return "apply";
  case Stage::Validate:
    return "validate";
  case Stage::Total:
    return "total";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nsSince(Clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
          .count());
}

/// Times one stage and records the sample.
template <typename F>
auto timed(StageSampler &S, Stage St, F &&Fn) -> decltype(Fn()) {
  Clock::time_point T0 = Clock::now();
  if constexpr (std::is_void_v<decltype(Fn())>) {
    Fn();
    S.SamplesNs[static_cast<unsigned>(St)].push_back(nsSince(T0));
  } else {
    auto R = Fn();
    S.SamplesNs[static_cast<unsigned>(St)].push_back(nsSince(T0));
    return R;
  }
}

void writeDiags(json::JsonWriter &W, const std::vector<Diag> &Diags) {
  W.key("diags").beginArray();
  for (const Diag &D : Diags) {
    W.beginObject();
    W.field("severity", D.Severity == DiagSeverity::Error     ? "error"
                        : D.Severity == DiagSeverity::Warning ? "warning"
                                                              : "note");
    if (D.Line)
      W.field("line", static_cast<uint64_t>(D.Line));
    if (D.Stage)
      W.field("stage", static_cast<uint64_t>(D.Stage));
    if (!D.TemplateName.empty())
      W.field("template", D.TemplateName);
    W.field("message", D.Message);
    W.endObject();
  }
  W.endArray();
}

void writeLegality(json::JsonWriter &W, const LegalityResult &L) {
  W.field("legal", L.Legal);
  W.field("reject_kind", rejectKindName(L.Kind));
  if (!L.Legal)
    W.field("reason", L.Reason);
  else
    W.field("final_deps", L.FinalDeps.str());
}

/// Fails \p Out with a structured error record and returns it.
RequestOutcome fail(RequestOutcome &&Out, const EngineOptions &EO,
                    const std::string &Id, const char *Kind,
                    const std::string &Message,
                    const std::vector<Diag> *Diags = nullptr) {
  Out.Error = true;
  Out.ErrorKind = Kind;
  Out.Record = makeErrorRecord(EO.ToolName, Id, Kind, Message, Diags);
  return std::move(Out);
}

} // namespace

std::string engine::makeErrorRecord(const std::string &Tool,
                                    const std::string &Id,
                                    const std::string &Kind,
                                    const std::string &Message,
                                    const std::vector<Diag> *Diags) {
  json::JsonWriter W;
  json::beginToolRecord(W, Tool);
  W.field("id", Id);
  W.field("ok", false);
  W.key("error").beginObject();
  W.field("kind", Kind);
  W.field("message", Message);
  if (Diags)
    writeDiags(W, *Diags);
  W.endObject();
  W.endObject();
  return W.take();
}

RequestOutcome engine::processRequest(api::Pipeline &P,
                                      const EngineOptions &EO,
                                      const std::string &Line, uint64_t LineNo,
                                      StageSampler &Sampler,
                                      const DeadlineToken *DL) {
  RequestOutcome Out;
  std::string LineId = std::to_string(LineNo);

  // Ingestion hardening: refuse pathological lines *before* the JSON
  // parser sees them, as structured per-record diagnostics. The line
  // content is never echoed (an oversized or NUL-ridden line would make
  // the error record itself pathological).
  if (Line.size() > EO.MaxLineBytes)
    return fail(std::move(Out), EO, LineId, errkind::OversizedLine,
                "request line " + LineId + " is " +
                    std::to_string(Line.size()) +
                    " bytes, over the per-line limit of " +
                    std::to_string(EO.MaxLineBytes));
  if (Line.find('\0') != std::string::npos)
    return fail(std::move(Out), EO, LineId, errkind::EmbeddedNul,
                "request line " + LineId + " contains an embedded NUL byte");

  // A deadline can expire before the request is even looked at (queue
  // wait under load); every later check sits on a stage boundary, except
  // inside the search, which polls it per work unit.
  auto deadlineRecord = [&](const std::string &Id, const std::string &When) {
    Out.Error = true;
    Out.ErrorKind = errkind::Deadline;
    Out.Record = makeErrorRecord(EO.ToolName, Id, errkind::Deadline,
                                 "deadline exceeded " + When);
  };
  auto deadlineExpired = [&](const char *BeforeStage,
                             const std::string &Id) -> bool {
    if (!DL || !DL->expired())
      return false;
    deadlineRecord(Id, std::string("before stage '") + BeforeStage + "'");
    return true;
  };
  if (deadlineExpired("parse", LineId))
    return Out;

  ErrorOr<BatchRequest> ReqOr = parseRequestLine(Line, LineNo);
  if (!ReqOr)
    return fail(std::move(Out), EO, LineId, errkind::Request, ReqOr.message(),
                &ReqOr.diags());
  BatchRequest Req = ReqOr.take();
  if (EO.ForcedValidateBudget && !Req.ValidateBudget && !Req.ValidateNative)
    Req.ValidateBudget = EO.ForcedValidateBudget;
  if (EO.ForcedValidateNative && !Req.ValidateBudget && !Req.ValidateNative)
    Req.ValidateNative = true;

  // Deterministic fault injection: a worker exception for targeted ids,
  // which the worker loop degrades to a structured "internal" record.
  if (EO.Faults.WorkerThrow &&
      Req.Id.find(WorkerThrowIdMarker) != std::string::npos)
    throw std::runtime_error("injected worker exception (worker-throw) for "
                             "request id '" +
                             Req.Id + "'");

  ErrorOr<LoopNest> NestOr =
      timed(Sampler, Stage::Parse, [&] { return P.loadNest(Req.NestSource); });
  if (!NestOr)
    return fail(std::move(Out), EO, Req.Id, errkind::Nest,
                "nest: " + NestOr.message(), &NestOr.diags());
  LoopNest Nest = NestOr.take();

  if (EO.CollectNestKeys) {
    OverflowGuard Guard;
    std::string Key = canonicalNestKey(Nest);
    // A saturated fingerprint is not a usable cache key (see
    // api::Pipeline); such a request is simply not journaled.
    if (!Guard.triggered()) {
      Out.NestKey = std::move(Key);
      Out.NestSource = Req.NestSource;
      Out.Script = Req.Script;
    }
  }

  if (deadlineExpired("deps", Req.Id))
    return Out;
  bool DepOverflow = false;
  std::shared_ptr<const DepSet> D = timed(
      Sampler, Stage::Deps, [&] { return P.dependences(Nest, &DepOverflow); });
  if (DepOverflow)
    return fail(
        std::move(Out), EO, Req.Id, errkind::DepsOverflow,
        "deps: dependence analysis overflows the int64 coefficient range");

  json::JsonWriter W;
  json::beginToolRecord(W, EO.ToolName);
  W.field("id", Req.Id);
  W.field("ok", true);
  W.field("mode", !Req.Auto.empty() ? "auto" : "script");
  W.field("deps", D->str());

  TransformSequence Seq;
  bool SeqLegal = true; // script mode: result of the legality test

  if (!Req.Auto.empty()) {
    if (deadlineExpired("plan", Req.Id))
      return Out;
    search::SearchOptions SO;
    SO.Obj = Req.Auto == "locality" ? search::Objective::Locality
             : Req.Auto == "par"    ? search::Objective::Parallelism
                                    : search::Objective::Both;
    SO.Beam = Req.Beam;
    SO.Depth = Req.Depth;
    SO.TopK = Req.TopK;
    // One thread per request: the engine parallelizes across requests.
    SO.Threads = 1;
    if (DL && DL->armed())
      SO.Cancelled = [DL] { return DL->expired(); };
    search::SearchResult SR =
        timed(Sampler, Stage::Plan, [&] { return P.searchAuto(Nest, SO); });
    if (SR.Cancelled) {
      deadlineRecord(Req.Id, "during stage 'plan'");
      return Out;
    }
    if (!SR.Error.empty())
      return fail(std::move(Out), EO, Req.Id, errkind::Search,
                  "auto: " + SR.Error);
    W.field("objective", Req.Auto);
    if (SR.Best) {
      Seq = SR.Best->Seq;
      W.key("winner").beginObject();
      W.field("cost", SR.Best->Cost);
      W.field("miss_ratio", SR.Best->MissRatio);
      W.field("par_score", static_cast<int64_t>(SR.Best->ParScore));
      W.key("parallel_loops").beginArray();
      for (unsigned L : SR.Best->ParallelLoops)
        W.value(static_cast<uint64_t>(L));
      W.endArray();
      W.endObject();
    } else {
      W.nullField("winner");
    }
    W.key("search_stats").beginObject();
    W.field("enumerated", SR.Stats.Enumerated);
    W.field("pruned", SR.Stats.Pruned);
    W.field("deduped", SR.Stats.Deduped);
    W.field("leaves", SR.Stats.Leaves);
    W.field("legal", SR.Stats.Legal);
    W.field("analyzer_pruned", SR.Stats.AnalyzerPruned);
    W.endObject();

    if ((Req.ValidateBudget || Req.ValidateNative) && SR.Best) {
      if (deadlineExpired("validate", Req.Id))
        return Out;
      witness::ValidateOptions VO = witness::ValidateOptions::forRequest(
          Req.ValidateNative, Req.ValidateBudget);
      VO.ReproDir.clear(); // no filesystem writes from engine workers
      std::vector<TransformSequence> Cands;
      for (const search::ScoredSequence &S : SR.Top)
        Cands.push_back(S.Seq);
      if (Cands.empty())
        Cands.push_back(SR.Best->Seq);
      witness::LadderResult LR =
          timed(Sampler, Stage::Validate,
                [&] { return P.validate(Nest, Cands, VO); });
      witness::writeLadder(W, LR);
      Seq = LR.fellBackToIdentity() ? TransformSequence()
                                    : Cands[static_cast<size_t>(LR.Chosen)];
    }
    if (Req.Reduce) {
      OverflowGuard Guard;
      TransformSequence Red = Seq.reduced();
      if (Guard.triggered())
        return fail(std::move(Out), EO, Req.Id, errkind::ReduceOverflow,
                    "reduce: sequence reduction overflows the int64 range");
      Seq = std::move(Red);
    }
    W.field("sequence", Seq.str());
    if (Req.Analyze) {
      analysis::AnalysisReport AR = P.analyze(Seq, Nest);
      W.key("analysis");
      analysis::writeReport(W, AR);
      if (AR.hasErrors())
        Out.Illegal = true;
    }
    if (deadlineExpired("legality", Req.Id))
      return Out;
    // The winner is legal by construction; re-deriving the verdict here
    // reports the final mapped dependence set. The search confirmed the
    // winner through the same Pipeline's legality engine, so this walk
    // hits its cached prefixes unless reduce or validation changed the
    // sequence.
    LegalityResult L = timed(Sampler, Stage::Legality,
                             [&] { return P.checkLegality(Seq, Nest); });
    writeLegality(W, L);
    SeqLegal = L.Legal;
  } else {
    if (deadlineExpired("plan", Req.Id))
      return Out;
    ErrorOr<TransformSequence> SeqOr = timed(Sampler, Stage::Plan, [&] {
      return P.parseScript(Req.Script, Nest.numLoops());
    });
    if (!SeqOr)
      return fail(std::move(Out), EO, Req.Id, errkind::Script,
                  "script: " + SeqOr.message(), &SeqOr.diags());
    Seq = SeqOr.take();
    if (Req.Reduce) {
      OverflowGuard Guard;
      TransformSequence Red = Seq.reduced();
      if (Guard.triggered())
        return fail(std::move(Out), EO, Req.Id, errkind::ReduceOverflow,
                    "reduce: sequence reduction overflows the int64 range");
      Seq = std::move(Red);
    }
    W.field("sequence", Seq.str());
    if (Req.Analyze) {
      analysis::AnalysisReport AR = P.analyze(Seq, Nest);
      W.key("analysis");
      analysis::writeReport(W, AR);
      if (AR.hasErrors())
        Out.Illegal = true;
    }

    if (Req.Legality) {
      if (deadlineExpired("legality", Req.Id))
        return Out;
      LegalityResult L = timed(Sampler, Stage::Legality,
                               [&] { return P.checkLegality(Seq, Nest); });
      writeLegality(W, L);
      SeqLegal = L.Legal;
      if (!L.Legal)
        Out.Illegal = true;
    }

    if ((Req.ValidateBudget || Req.ValidateNative) && SeqLegal) {
      if (deadlineExpired("validate", Req.Id))
        return Out;
      witness::ValidateOptions VO = witness::ValidateOptions::forRequest(
          Req.ValidateNative, Req.ValidateBudget);
      VO.ReproDir.clear();
      std::vector<TransformSequence> Cands{Seq};
      witness::LadderResult LR =
          timed(Sampler, Stage::Validate,
                [&] { return P.validate(Nest, Cands, VO); });
      witness::writeLadder(W, LR);
      if (LR.fellBackToIdentity())
        Seq = TransformSequence();
    }
  }

  if (!Req.Emit.empty() && SeqLegal) {
    if (deadlineExpired("apply", Req.Id))
      return Out;
    ErrorOr<LoopNest> Applied =
        timed(Sampler, Stage::Apply, [&] { return P.apply(Seq, Nest); });
    if (!Applied)
      return fail(std::move(Out), EO, Req.Id, errkind::Apply,
                  "apply: " + Applied.message(), &Applied.diags());
    W.field("output", P.emit(*Applied, Req.Emit == "c" ? api::EmitKind::C
                                                       : api::EmitKind::Loop));
  }

  W.endObject();
  Out.Record = W.take();
  return Out;
}

StageMetrics engine::summarizeStage(std::vector<uint64_t> &&Samples) {
  StageMetrics M;
  M.Count = Samples.size();
  if (Samples.empty())
    return M;
  for (uint64_t S : Samples)
    M.TotalNs += S;
  std::sort(Samples.begin(), Samples.end());
  M.P50Ns = Samples[(Samples.size() - 1) / 2];
  M.P95Ns = Samples[(Samples.size() - 1) * 95 / 100];
  return M;
}

std::vector<std::string> engine::splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos) {
      if (Pos < Text.size())
        Lines.push_back(Text.substr(Pos));
      break;
    }
    Lines.push_back(Text.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  // CRLF corpora parse like LF ones (the '\r' would otherwise poison the
  // trailing field of every request line).
  for (std::string &L : Lines)
    if (!L.empty() && L.back() == '\r')
      L.pop_back();
  return Lines;
}

BatchEngine::BatchEngine(EngineOptions O)
    : Opts(O),
      P(api::PipelineOptions{O.EnableCache, {}, O.CacheCapacity}) {}

EngineMetrics
BatchEngine::run(const std::vector<std::string> &Lines,
                 const std::function<void(const std::string &)> &Sink) {
  // Non-blank lines are the work items; 1-based line numbers seed the
  // default request ids.
  std::vector<std::pair<uint64_t, const std::string *>> Work;
  for (size_t I = 0; I < Lines.size(); ++I) {
    bool Blank = Lines[I].find_first_not_of(" \t\r") == std::string::npos;
    if (!Blank)
      Work.emplace_back(I + 1, &Lines[I]);
  }
  size_t N = Work.size();
  unsigned Jobs = std::max(1u, Opts.Jobs);

  /// Per-worker tallies, merged after the run.
  struct WorkerData {
    StageSampler Sampler;
    uint64_t BusyNs = 0;
    uint64_t Errors = 0;
    uint64_t Illegal = 0;
  };

  std::vector<std::string> Results(N);
  std::vector<char> Done(N, 0);
  std::atomic<size_t> Next{0};
  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<WorkerData> Workers(Jobs);

  auto stopped = [&] {
    return Opts.StopFlag && Opts.StopFlag->load(std::memory_order_relaxed);
  };

  api::CacheStats Before = P.cacheStats();
  Clock::time_point Start = Clock::now();

  std::vector<std::thread> Threads;
  Threads.reserve(Jobs);
  for (unsigned J = 0; J < Jobs; ++J) {
    Threads.emplace_back([&, J] {
      WorkerData &WD = Workers[J];
      for (;;) {
        size_t I = Next.fetch_add(1, std::memory_order_relaxed);
        if (I >= N)
          break;
        RequestOutcome O;
        if (stopped()) {
          // Interrupted: skip unstarted requests (an empty slot tells
          // the flusher where the clean prefix ends). In-flight requests
          // on other workers still finish - no torn records.
          std::lock_guard<std::mutex> Lock(Mu);
          Done[I] = 1;
          Cv.notify_one();
          continue;
        }
        Clock::time_point T0 = Clock::now();
        O = timed(WD.Sampler, Stage::Total, [&]() -> RequestOutcome {
          try {
            return processRequest(P, Opts, *Work[I].second, Work[I].first,
                                  WD.Sampler);
          } catch (const std::exception &E) {
            RequestOutcome Bad;
            Bad.Error = true;
            Bad.ErrorKind = errkind::Internal;
            Bad.Record = makeErrorRecord(
                Opts.ToolName, std::to_string(Work[I].first),
                errkind::Internal,
                std::string("internal: worker exception: ") + E.what());
            return Bad;
          }
        });
        WD.BusyNs += nsSince(T0);
        WD.Errors += O.Error;
        WD.Illegal += O.Illegal;
        {
          std::lock_guard<std::mutex> Lock(Mu);
          Results[I] = std::move(O.Record);
          Done[I] = 1;
        }
        Cv.notify_one();
      }
    });
  }

  // Completed-prefix flusher: emit records in input order as they land.
  // On interruption the first skipped slot ends the stream - the sink
  // always sees a clean prefix, never a gap.
  uint64_t Served = 0;
  {
    std::unique_lock<std::mutex> Lock(Mu);
    for (size_t I = 0; I < N; ++I) {
      Cv.wait(Lock, [&] { return Done[I] != 0; });
      if (Results[I].empty())
        break;
      std::string R = std::move(Results[I]);
      Lock.unlock();
      Sink(R);
      ++Served;
      Lock.lock();
    }
  }
  for (std::thread &T : Threads)
    T.join();

  EngineMetrics M;
  M.Requests = N;
  M.Served = Served;
  M.Interrupted = stopped() && Served < N;
  M.Jobs = Jobs;
  M.WallNs = nsSince(Start);
  api::CacheStats After = P.cacheStats();
  M.Cache.DepHits = After.DepHits - Before.DepHits;
  M.Cache.DepMisses = After.DepMisses - Before.DepMisses;
  M.Cache.LegalityHits = After.LegalityHits - Before.LegalityHits;
  M.Cache.LegalityMisses = After.LegalityMisses - Before.LegalityMisses;
  M.Cache.DepLookups = M.Cache.DepHits + M.Cache.DepMisses;
  M.Cache.LegalityLookups = M.Cache.LegalityHits + M.Cache.LegalityMisses;
  M.Cache.DepInserts = After.DepInserts - Before.DepInserts;
  M.Cache.DepEvictions = After.DepEvictions - Before.DepEvictions;
  M.Cache.LegalityInserts = After.LegalityInserts - Before.LegalityInserts;
  M.Cache.LegalityEvictions =
      After.LegalityEvictions - Before.LegalityEvictions;
  M.Cache.DepEntries = After.DepEntries;
  M.Cache.LegalityEntries = After.LegalityEntries;
  for (unsigned S = 0; S < NumStages; ++S) {
    std::vector<uint64_t> All;
    for (WorkerData &WD : Workers)
      All.insert(All.end(), WD.Sampler.SamplesNs[S].begin(),
                 WD.Sampler.SamplesNs[S].end());
    M.Stages[S] = summarizeStage(std::move(All));
  }
  for (const WorkerData &WD : Workers) {
    M.BusyNs += WD.BusyNs;
    M.Errors += WD.Errors;
    M.Illegal += WD.Illegal;
  }
  return M;
}

std::string BatchEngine::runToString(const std::vector<std::string> &Lines,
                                     EngineMetrics *MetricsOut) {
  std::string Out;
  EngineMetrics M = run(Lines, [&](const std::string &R) {
    Out += R;
    Out += '\n';
  });
  if (MetricsOut)
    *MetricsOut = M;
  return Out;
}

std::string EngineMetrics::toJson() const {
  json::JsonWriter W;
  json::beginToolRecord(W, "irlt-batch");
  W.field("record", "metrics");
  W.field("requests", Requests);
  W.field("served", Served);
  W.field("errors", Errors);
  W.field("illegal", Illegal);
  W.field("interrupted", Interrupted);
  W.field("jobs", static_cast<uint64_t>(Jobs));
  W.field("wall_ms", static_cast<double>(WallNs) / 1e6);
  W.field("worker_utilization", workerUtilization());
  W.key("dep_cache").beginObject();
  W.field("hits", Cache.DepHits);
  W.field("misses", Cache.DepMisses);
  W.field("lookups", Cache.DepLookups);
  W.field("inserts", Cache.DepInserts);
  W.field("evictions", Cache.DepEvictions);
  W.field("entries", Cache.DepEntries);
  W.field("hit_rate", Cache.depHitRate());
  W.endObject();
  W.key("legality_cache").beginObject();
  W.field("hits", Cache.LegalityHits);
  W.field("misses", Cache.LegalityMisses);
  W.field("lookups", Cache.LegalityLookups);
  W.field("inserts", Cache.LegalityInserts);
  W.field("evictions", Cache.LegalityEvictions);
  W.field("entries", Cache.LegalityEntries);
  W.field("hit_rate", Cache.legalityHitRate());
  W.endObject();
  W.key("stages").beginArray();
  for (unsigned S = 0; S < NumStages; ++S) {
    const StageMetrics &SM = Stages[S];
    W.beginObject();
    W.field("name", stageName(static_cast<Stage>(S)));
    W.field("count", SM.Count);
    W.field("total_ms", static_cast<double>(SM.TotalNs) / 1e6);
    W.field("p50_us", static_cast<double>(SM.P50Ns) / 1e3);
    W.field("p95_us", static_cast<double>(SM.P95Ns) / 1e3);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}
