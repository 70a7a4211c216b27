//===- perfbench/harness/InProcess.cpp - Closed-loop in-process runs ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
//
// warm-script, cold-script and auto-search: nproc threads, each a closed
// loop that takes the next request line and calls engine::processRequest
// on one shared api::Pipeline (what irlt-serve workers and BatchEngine
// do). Each call is timed from outside.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "api/Pipeline.h"
#include "deps/DepOracle.h"
#include "engine/Engine.h"
#include "engine/Wire.h"
#include "fuzz/Rng.h"
#include "legality/IncrementalEngine.h"
#include "search/CostModel.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <thread>

using namespace irlt;

namespace perfbench {

namespace {

/// Entries per Pipeline cache: far above warm-script's distinct requests,
/// and a bound that keeps a cold run's memory flat however many requests
/// it serves (a long-lived server would bound its caches too).
constexpr size_t CacheCapacity = 4096;
/// Sampled records kept per thread for the referee.
constexpr size_t MaxKeptPerThread = 256;
/// Requests the referee recomputes: script requests are cheap; an auto
/// request can take a second.
constexpr unsigned RefereeScripts = 48;
constexpr unsigned RefereeAutos = 2;
/// Set-ups per run (setup_s is their median) and the pause between two.
/// On a 4-vCPU x86-64 virtual machine, interference from other tenants
/// came in episodes of about a second that slowed a set-up by half; spaced
/// set-ups fall into different episodes, so the median passes over a slow
/// one.
constexpr unsigned SetupReps = 9;
constexpr unsigned AutoSetupReps = 5;
constexpr std::chrono::milliseconds SetupGap{400};
/// Unmeasured one-second slices at the start of a script window.
constexpr size_t WarmUpSlices = 2;
/// Generated auto-search winners compiled and checked per run.
constexpr unsigned CheckedGenerated = 4;

/// Latency samples of one thread in one slice, in memory allocated and
/// touched up front: the harness's own footprint must not grow with the
/// requests served, or peak_rss_mb would rise whenever throughput does.
/// Past the capacity it keeps a uniform reservoir sample.
class LatencySamples {
public:
  explicit LatencySamples(uint64_t Seed) : Buf(Capacity), Rng(Seed) {}

  void add(double Ms) {
    if (N < Capacity)
      Buf[N] = static_cast<float>(Ms);
    else if (uint64_t J = Rng.below(N + 1); J < Capacity)
      Buf[J] = static_cast<float>(Ms);
    ++N;
  }
  uint64_t seen() const { return N; }
  void appendTo(std::vector<double> &Out) const {
    size_t Kept = std::min<uint64_t>(N, Capacity);
    Out.insert(Out.end(), Buf.begin(),
               Buf.begin() + static_cast<ptrdiff_t>(Kept));
  }

private:
  static constexpr size_t Capacity = 1u << 15;
  std::vector<float> Buf;
  fuzz::Rng Rng;
  uint64_t N = 0;
};

bool sampled(uint64_t Seed, uint64_t I) {
  return fuzz::mix64(Seed ^ 0x4efe4eeull ^ fuzz::mix64(I)) % 8 == 0;
}

/// CPU time the hypervisor took from this machine so far (the "steal"
/// column of /proc/stat, all CPUs, in clock ticks); 0 where not reported.
uint64_t stealTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t F[8] = {};
  In >> Cpu;
  for (uint64_t &V : F)
    In >> V;
  return Cpu == "cpu" ? F[7] : 0;
}

/// One measured window of the closed loop. Script workloads cut it into
/// one-second slices, after WarmUpSlices more that are not measured: on a
/// 4-vCPU x86-64 virtual machine the first second or two after the set-up
/// ran at a quarter to two thirds of the speed of the rest. Interference from other tenants of the machine
/// only ever slows a slice down, and on a virtual machine it came in
/// stretches of seconds that moved whole runs by up to 40%; so the figures
/// come from the half of the measured slices in which the hypervisor stole
/// least CPU time (all of them where nothing is stolen).
struct Window {
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  std::string FirstError;
  /// Requests completed per second in the kept slices.
  double Throughput = 0;
  /// Latency samples pooled over the kept slices.
  std::vector<double> LatMs;
  size_t KeptSlices = 0;
  size_t MeasuredSlices = 0;
  uint64_t StealTicks = 0; ///< over the measured slices
  /// Peak memory of the process at the end of the timed loop, before the
  /// harness merges its samples.
  double PeakRssMb = 0;
  Records Kept;
  std::map<int, uint64_t> FirstOfSlot;
  api::CacheStats Cache;    ///< delta over the window
  uint64_t EngineHits = 0;  ///< legality::IncrementalEngine::global()
  uint64_t EngineMisses = 0;

  double engineHitRatio() const {
    uint64_t N = EngineHits + EngineMisses;
    return N ? static_cast<double>(EngineHits) / static_cast<double>(N) : 0;
  }
};

class Runner {
public:
  Runner(const Options &O, const Corpus &C) : O(O), C(C) {}

  /// Brings up a fresh engine: a new Pipeline, an empty global legality
  /// engine, and the workload's warm-up pass. \returns seconds taken.
  double setUp(unsigned Rep, Report &R);

  /// Runs the closed loop for \p Seconds on \p Threads threads, continuing
  /// the request stream where the previous window stopped.
  Window window(double Seconds, unsigned Threads, bool KeepAll);

  api::Pipeline &pipeline() { return *P; }
  const engine::EngineOptions &engineOptions() const { return EO; }

private:
  const Options &O;
  const Corpus &C;
  engine::EngineOptions EO;
  std::unique_ptr<api::Pipeline> P;
  uint64_t Next = 0;
};

double Runner::setUp(unsigned Rep, Report &R) {
  P.reset();
  uint64_t T0 = nowNs();
  legality::IncrementalEngine::global().clear();
  P = std::make_unique<api::Pipeline>(
      api::PipelineOptions{true, {}, CacheCapacity});
  std::vector<Request> Lines;
  if (O.Workload == "warm-script")
    Lines = C.warmSet();
  else if (O.Workload == "cold-script")
    for (unsigned K = 0; K < 256; ++K)
      Lines.push_back(C.setupRequest(Rep * 256 + K));
  else
    Lines.push_back(C.setupRequest(Rep));
  engine::StageSampler S;
  for (size_t K = 0; K < Lines.size(); ++K) {
    engine::RequestOutcome Out =
        engine::processRequest(*P, EO, Lines[K].Line, K + 1, S);
    if (Out.Error)
      R.fail("set-up request failed: " + Out.Record);
  }
  return static_cast<double>(nowNs() - T0) / 1e9;
}

Window Runner::window(double Seconds, unsigned Threads, bool KeepAll) {
  // Auto-search runs whole rounds of very unequal requests: one slice.
  uint64_t Round = C.roundSize();
  size_t Measured =
      Round > 1 ? 1 : std::max<size_t>(1, static_cast<size_t>(Seconds + 0.5));
  size_t WarmUp = Round > 1 ? 0 : WarmUpSlices;
  size_t NumSlices = WarmUp + Measured;
  uint64_t SliceNs = static_cast<uint64_t>(Seconds * 1e9) / Measured;
  struct PerThread {
    PerThread(uint64_t Seed, size_t NumSlices) {
      for (size_t K = 0; K < NumSlices; ++K)
        Lat.emplace_back(fuzz::mix64(Seed + K));
    }
    std::vector<LatencySamples> Lat;
    uint64_t Completed = 0;
    uint64_t Failed = 0;
    std::string FirstError;
    Records Kept;
    std::map<int, uint64_t> FirstOfSlot;
    uint64_t EndNs = 0;
  };
  std::vector<PerThread> PT;
  PT.reserve(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    PT.emplace_back(fuzz::mix64(O.Seed + T), NumSlices);
  std::atomic<uint64_t> Claim{Next};
  std::atomic<uint64_t> StopAt{UINT64_MAX};
  api::CacheStats CacheBefore = P->cacheStats();
  legality::EngineStats EngBefore =
      legality::IncrementalEngine::global().stats();
  uint64_t Start = nowNs();

  auto Work = [&](PerThread &M) {
    engine::StageSampler S;
    for (;;) {
      uint64_t I = Claim.fetch_add(1);
      if (I >= StopAt.load())
        break;
      Request Rq = C.at(I);
      for (std::vector<uint64_t> &V : S.SamplesNs)
        V.clear(); // the engine appends one sample per stage per call
      engine::RequestOutcome Out;
      uint64_t T0 = nowNs();
      try {
        trace::Scope Span(trace::Request);
        Out = engine::processRequest(*P, EO, Rq.Line, I + 1, S);
      } catch (const std::exception &E) {
        Out.Error = true;
        Out.Record = std::string("exception: ") + E.what();
      }
      uint64_t T1 = nowNs();
      size_t K = NumSlices == 1 ? 0 : (T1 - Start) / SliceNs;
      if (K < NumSlices) // not a request still in flight at the deadline
        M.Lat[K].add(static_cast<double>(T1 - T0) / 1e6);
      ++M.Completed;
      M.EndNs = T1;
      if (Out.Error && !M.Failed++)
        M.FirstError = Out.Record;
      // A thread claims increasing indices: its first is its lowest.
      bool FirstOfSlot = Rq.Panel >= 0 && !Out.Error &&
                         M.FirstOfSlot.emplace(Rq.Panel, I).second;
      if (FirstOfSlot || KeepAll ||
          (sampled(O.Seed, I) && M.Kept.size() < MaxKeptPerThread))
        M.Kept.emplace(I, std::move(Out.Record));
    }
  };
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back(Work, std::ref(PT[T]));
  std::vector<uint64_t> Steal{stealTicks()};
  for (size_t K = 1; K <= NumSlices; ++K) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(Start + K * SliceNs)));
    Steal.push_back(stealTicks());
  }
  // Stop on a round boundary: every run then serves whole rounds.
  StopAt.store((Claim.load() + Round - 1) / Round * Round);
  for (std::thread &T : Ts)
    T.join();
  Next = StopAt.load();

  Window W;
  W.PeakRssMb = peakRssMb();
  double ElapsedSum = 0;
  for (PerThread &M : PT) {
    W.Completed += M.Completed;
    if (M.Failed && !W.Failed)
      W.FirstError = M.FirstError;
    W.Failed += M.Failed;
    W.Kept.merge(M.Kept);
    for (const auto &[Slot, I] : M.FirstOfSlot) {
      auto It = W.FirstOfSlot.find(Slot);
      if (It == W.FirstOfSlot.end() || It->second > I)
        W.FirstOfSlot[Slot] = I;
    }
    ElapsedSum += M.EndNs > Start ? static_cast<double>(M.EndNs - Start) : 0;
  }
  std::vector<double> Ticks;
  for (size_t K = WarmUp; K < NumSlices; ++K)
    Ticks.push_back(static_cast<double>(Steal[K + 1] - Steal[K]));
  double MedianTicks = median(Ticks);
  W.MeasuredSlices = Measured;
  W.StealTicks = Steal.back() - Steal[WarmUp];
  uint64_t KeptSamples = 0;
  for (size_t K = WarmUp; K < NumSlices; ++K) {
    if (Ticks[K - WarmUp] > MedianTicks)
      continue;
    ++W.KeptSlices;
    for (const PerThread &M : PT) {
      M.Lat[K].appendTo(W.LatMs);
      KeptSamples += M.Lat[K].seen();
    }
  }
  if (NumSlices == 1) {
    // Each thread's own span, so the idle tail of the last round's slowest
    // request does not count against the others.
    double MeanElapsedS = ElapsedSum / Threads / 1e9;
    W.Throughput =
        MeanElapsedS > 0 ? static_cast<double>(W.Completed) / MeanElapsedS : 0;
  } else {
    W.Throughput = static_cast<double>(KeptSamples) /
                   (static_cast<double>(W.KeptSlices * SliceNs) / 1e9);
  }
  api::CacheStats A = P->cacheStats();
  W.Cache.DepHits = A.DepHits - CacheBefore.DepHits;
  W.Cache.DepMisses = A.DepMisses - CacheBefore.DepMisses;
  W.Cache.LegalityHits = A.LegalityHits - CacheBefore.LegalityHits;
  W.Cache.LegalityMisses = A.LegalityMisses - CacheBefore.LegalityMisses;
  legality::EngineStats EA = legality::IncrementalEngine::global().stats();
  W.EngineHits = EA.Hits - EngBefore.Hits;
  W.EngineMisses = EA.Misses - EngBefore.Misses;
  return W;
}

/// Fails the run on any ok:false record and on a cache that did not
/// behave as the workload's name says; prints the hit ratios.
void checkWindow(const Options &O, const Window &W, const char *Label,
                 Report &R) {
  R.Attempted += W.Completed;
  R.Failed += W.Failed;
  if (W.Failed)
    R.fail(std::string(Label) + ": " + std::to_string(W.Failed) +
           " requests failed; first: " + W.FirstError);
  uint64_t DepLookups = W.Cache.DepHits + W.Cache.DepMisses;
  Report::note(std::string(Label) + ": " + std::to_string(W.Completed) +
               " requests, dep cache " + std::to_string(DepLookups) +
               " lookups / " + std::to_string(W.Cache.DepMisses) +
               " misses (hit ratio " + std::to_string(W.Cache.depHitRate()) +
               "), legality cache hit ratio " +
               std::to_string(W.Cache.legalityHitRate()) +
               ", legality engine hit ratio " +
               std::to_string(W.engineHitRatio()));
  if (O.Workload == "warm-script" &&
      (W.Cache.depHitRate() < 0.95 || W.Cache.legalityHitRate() < 0.95))
    R.fail(std::string(Label) + ": warm-script hit ratio below 0.95");
  // Each cold request misses once, on its first lookup; its later
  // lookups of the same nest (legality, analysis) are the only hits.
  if (O.Workload == "cold-script" &&
      (W.Cache.DepMisses != W.Completed || W.Cache.LegalityHits != 0))
    R.fail(std::string(Label) +
           ": cold-script reused a cached result across requests");
}

/// Recomputes a seeded sample of \p Kept through a fresh cache-off
/// Pipeline on one thread, each request from an empty global legality
/// engine, and compares the records byte for byte.
void referee(const Options &O, const Corpus &C,
             const engine::EngineOptions &EO, const Records &Kept,
             unsigned Max, Report &R) {
  std::vector<uint64_t> Idx;
  for (const auto &KV : Kept)
    Idx.push_back(KV.first);
  fuzz::Rng Rng(fuzz::mix64(O.Seed ^ 0x7ef));
  for (size_t K = Idx.size(); K > 1; --K)
    std::swap(Idx[K - 1], Idx[Rng.below(K)]);
  if (Idx.size() > Max)
    Idx.resize(Max);
  api::Pipeline Ref(api::PipelineOptions{false, {}, 0});
  engine::StageSampler S;
  unsigned Bad = 0;
  for (uint64_t I : Idx) {
    // Even a cache-off Pipeline checks legality through the global engine:
    // an empty memo per request keeps one recomputation from reusing
    // another's prefix states.
    legality::IncrementalEngine::global().clear();
    engine::RequestOutcome Out =
        engine::processRequest(Ref, EO, C.at(I).Line, I + 1, S);
    if (Out.Record != Kept.at(I) && !Bad++)
      R.fail("referee: request " + std::to_string(I) +
             " differs from its cache-off recomputation\n  measured: " +
             Kept.at(I) + "\n  referee:  " + Out.Record);
  }
  Report::note("referee: " + std::to_string(Idx.size()) +
               " requests recomputed cache-off, " + std::to_string(Bad) +
               " mismatches");
}

void endToEnd(const Window &W, const std::vector<double> &SetupS,
              Report &R) {
  std::vector<double> LatMs = W.LatMs;
  Tail T = latencyTail(W.LatMs);
  Report::note("window: " + std::to_string(W.KeptSlices) + " of " +
               std::to_string(W.MeasuredSlices) +
               " measured slices kept (hypervisor stole " +
               std::to_string(W.StealTicks) +
               " CPU ticks in all); latency_tail_ms is p" +
               std::to_string(T.Percentile) + " of " +
               std::to_string(LatMs.size()) + " samples");
  R.metric("throughput_rps", W.Throughput, "1/s");
  R.metric("latency_p50_ms", median(std::move(LatMs)), "ms");
  R.metric("latency_tail_ms", T.Value, "ms");
  R.metric("setup_s", median(SetupS), "s");
  R.metric("peak_rss_mb", W.PeakRssMb, "MiB");
}

/// Per-layer figures of the traced window \p A, with the untraced windows
/// \p B (same threads) and \p One (one thread) for the scaling and the
/// tracing overhead.
void layerMetrics(const std::vector<trace::Span> &Spans,
                  const trace::PairCounts &PC, const Window &A,
                  const Window &B, const Window &One, Report &R) {
  auto Us = [&](trace::Layer L, auto Keep) {
    std::vector<double> V;
    for (const trace::Span &S : Spans)
      if (S.Phase == trace::Traced && S.L == L && Keep(S))
        V.push_back(static_cast<double>(S.durNs()) / 1e3);
    return V;
  };
  auto All = [](const trace::Span &) { return true; };
  R.metric("ir.parse_us", median(Us(trace::Parse, All)), "us");
  R.metric("ir.fingerprint_us", median(Us(trace::Fingerprint, All)), "us");
  R.metric("deps.lookup_us",
           median(Us(trace::DepsLookup,
                     [](const trace::Span &S) {
                       return !S.hasChild(trace::DepsAnalyze);
                     })),
           "us");
  double Lookups = static_cast<double>(A.Cache.DepHits + A.Cache.DepMisses);
  R.metric("deps.lookups_per_request",
           A.Completed ? Lookups / static_cast<double>(A.Completed) : 0,
           "count");
  R.metric("deps.hit_ratio", A.Cache.depHitRate(), "ratio");
  std::vector<double> Analyses = Us(trace::DepsAnalyze, All);
  double N = std::max<double>(1, static_cast<double>(Analyses.size()));
  R.metric("deps.analyze_us", median(Analyses), "us");
  R.metric("deps.analyze_p95_us", quantile(Analyses, 0.95), "us");
  R.metric("deps.pairs_ziv", static_cast<double>(PC.Ziv) / N, "count/analysis");
  R.metric("deps.pairs_gcd", static_cast<double>(PC.Gcd) / N, "count/analysis");
  R.metric("deps.pairs_fm", static_cast<double>(PC.Fm) / N, "count/analysis");
  R.metric("deps.pairs_conservative",
           static_cast<double>(PC.Conservative) / N, "count/analysis");
  R.metric("legality.hit_us",
           median(Us(trace::Legality,
                     [](const trace::Span &S) {
                       return !S.hasChild(trace::LegalityWalk);
                     })),
           "us");
  R.metric("legality.hit_ratio", A.Cache.legalityHitRate(), "ratio");
  R.metric("legality.engine_hit_ratio", A.engineHitRatio(), "ratio");
  R.metric("search.request_ms", median(Us(trace::Search, All)) / 1e3, "ms");
  double Searches = 0, Enumerated = 0, Legal = 0, AnalyzerPruned = 0;
  for (const auto &KV : A.Kept) {
    ErrorOr<json::JsonValue> Rec = json::JsonValue::parse(KV.second);
    const json::JsonValue *St = Rec ? Rec->find("search_stats") : nullptr;
    if (!St)
      continue;
    ++Searches;
    Enumerated += static_cast<double>(St->intOr("enumerated", 0));
    Legal += static_cast<double>(St->intOr("legal", 0));
    AnalyzerPruned += static_cast<double>(St->intOr("analyzer_pruned", 0));
  }
  Searches = std::max<double>(Searches, 1);
  R.metric("search.enumerated", Enumerated / Searches, "count");
  R.metric("search.legal", Legal / Searches, "count");
  R.metric("search.analyzer_pruned", AnalyzerPruned / Searches, "count");
  R.metric("transform.apply_us", median(Us(trace::Apply, All)), "us");
  R.metric("analysis.analyze_us", median(Us(trace::Analyze, All)), "us");
  std::vector<double> SelfUs;
  for (const trace::Span &S : Spans)
    if (S.Phase == trace::Traced && S.L == trace::Engine)
      SelfUs.push_back(static_cast<double>(S.selfNs()) / 1e3);
  R.metric("engine.self_us", median(SelfUs), "us");
  R.metric("engine.jobs_speedup",
           One.Throughput > 0 ? B.Throughput / One.Throughput : 0, "x");
  R.metric("trace.overhead_pct",
           B.Throughput > 0
               ? (B.Throughput - A.Throughput) / B.Throughput * 100
               : 0,
           "%");
}

/// Uncached legality walks of sampled script requests: what a cache miss
/// pays in each mode.
void probeLegality(const Corpus &C, const Window &W, Report &R) {
  api::Pipeline P(api::PipelineOptions{false, {}, 0});
  legality::IncrementalEngine Uncached(legality::EngineOptions{0, false});
  std::vector<double> FullUs, FastUs;
  for (const auto &KV : W.Kept) {
    if (FullUs.size() >= 64)
      break;
    ErrorOr<engine::BatchRequest> Req =
        engine::parseRequestLine(C.at(KV.first).Line, KV.first + 1);
    if (!Req || !Req->Auto.empty())
      continue;
    ErrorOr<LoopNest> Nest = P.loadNest(Req->NestSource);
    if (!Nest)
      continue;
    ErrorOr<TransformSequence> Seq =
        P.parseScript(Req->Script, Nest->numLoops());
    if (!Seq)
      continue;
    TransformSequence T = Req->Reduce ? Seq->reduced() : *Seq;
    deps::DepResult D = deps::pipelineOracle().analyze(*Nest);
    if (D.Overflowed)
      continue;
    uint64_t T0 = nowNs();
    Uncached.check(T, *Nest, D.Deps, legality::Mode::Full);
    uint64_t T1 = nowNs();
    Uncached.check(T, *Nest, D.Deps, legality::Mode::Fast);
    uint64_t T2 = nowNs();
    FullUs.push_back(static_cast<double>(T1 - T0) / 1e3);
    FastUs.push_back(static_cast<double>(T2 - T1) / 1e3);
  }
  R.metric("legality.full_us", median(FullUs), "us");
  R.metric("legality.fast_us", median(FastUs), "us");
}

/// One fresh CostModel measurement (matmul interchanged): the unit of
/// work the search repeats per candidate.
void probeCostModel(Report &R) {
  api::Pipeline P;
  ErrorOr<LoopNest> Nest = P.loadNest(paperSource(Paper::Matmul, ""));
  ErrorOr<TransformSequence> Seq =
      Nest ? P.parseScript("interchange 2 3", Nest->numLoops())
           : ErrorOr<TransformSequence>(TransformSequence());
  if (!Nest || !Seq) {
    R.fail("cost-model probe: matmul does not parse");
    return;
  }
  std::string Key = Seq->reduced().str();
  std::vector<double> Us;
  for (unsigned K = 0; K < 5; ++K) {
    search::CostModelOptions CO;
    CO.Params = search::CostModel::defaultBindings(*Nest);
    search::CostModel CM(*Nest, CO);
    uint64_t T0 = nowNs();
    if (!CM.missRatio(*Seq, Key))
      R.fail("cost-model probe: no miss ratio for matmul");
    Us.push_back(static_cast<double>(nowNs() - T0) / 1e3);
  }
  R.metric("search.cost_measure_us", median(Us), "us");
}

/// A traced set-up request of auto-search: native validation of a winner.
void probeValidate(Runner &Rn, const Corpus &C, Report &R) {
  trace::reset();
  trace::setPhase(trace::Probe);
  trace::setEnabled(true);
  engine::StageSampler S;
  engine::RequestOutcome Out = engine::processRequest(
      Rn.pipeline(), Rn.engineOptions(), C.setupRequest(100).Line, 1, S);
  trace::setEnabled(false);
  if (Out.Error)
    R.fail("validate probe failed: " + Out.Record);
  std::vector<trace::Span> Spans = trace::collect();
  trace::requireLayers(Spans, {trace::Validate}, "validate probe", R);
  std::vector<double> Ms;
  for (const trace::Span &S : Spans)
    if (S.L == trace::Validate)
      Ms.push_back(static_cast<double>(S.durNs()) / 1e6);
  R.metric("witness.validate_ms", median(Ms), "ms");
}

} // namespace

void runInProcess(const Options &O, Report &R) {
  Corpus C(O.Workload, O.Seed);
  Runner Rn(O, C);
  bool Auto = O.Workload == "auto-search";
  std::vector<double> SetupS;
  std::string Reps;
  for (unsigned Rep = 0; Rep < (Auto ? AutoSetupReps : SetupReps); ++Rep) {
    if (Rep)
      std::this_thread::sleep_for(SetupGap);
    SetupS.push_back(Rn.setUp(Rep, R));
    Reps += " " + std::to_string(SetupS.back());
  }
  Report::note("set-up seconds:" + Reps);

  if (!O.Trace) {
    Window W = Rn.window(O.Seconds, O.Threads, Auto);
    checkWindow(O, W, "window", R);
    endToEnd(W, SetupS, R);
    referee(O, C, Rn.engineOptions(), W.Kept,
            Auto ? RefereeAutos : RefereeScripts, R);
    measurePanel(O, C, W.FirstOfSlot, W.Kept, Auto ? CheckedGenerated : 0,
                 R);
    return;
  }

  // Traced: half the time traced on nproc threads, then a quarter each
  // untraced on nproc threads and on one.
  trace::reset();
  trace::setPhase(trace::Traced);
  trace::setEnabled(true);
  Window A = Rn.window(O.Seconds / 2, O.Threads, Auto);
  trace::setEnabled(false);
  std::vector<trace::Span> Spans = trace::collect();
  trace::PairCounts PC = trace::pairCounts();
  trace::requireLayers(Spans,
                       {trace::Engine, trace::Parse, trace::Fingerprint,
                        trace::DepsLookup},
                       "traced window", R);
  if (O.Workload == "warm-script")
    trace::requireLayers(Spans, {trace::Script, trace::Legality},
                         "traced window", R);
  else if (O.Workload == "cold-script")
    trace::requireLayers(Spans,
                         {trace::Script, trace::Legality, trace::LegalityWalk,
                          trace::DepsAnalyze, trace::Apply, trace::Analyze},
                         "traced window", R);
  else
    trace::requireLayers(Spans, {trace::Search, trace::CostMeasure},
                         "traced window", R);
  Window B = Rn.window(O.Seconds / 4, O.Threads, false);
  Window One = Rn.window(O.Seconds / 4, 1, false);
  checkWindow(O, A, "traced window", R);
  checkWindow(O, B, "untraced window", R);
  checkWindow(O, One, "one-thread window", R);
  Report::note("throughput: traced " + std::to_string(A.Throughput) +
               "/s, untraced " + std::to_string(B.Throughput) +
               "/s, one thread " + std::to_string(One.Throughput) + "/s");
  layerMetrics(Spans, PC, A, B, One, R);
  probeLegality(C, A, R);
  if (Auto) {
    probeCostModel(R);
    probeValidate(Rn, C, R);
  }
  referee(O, C, Rn.engineOptions(), A.Kept,
          Auto ? RefereeAutos : RefereeScripts, R);
  measurePanel(O, C, A.FirstOfSlot, A.Kept, Auto ? CheckedGenerated : 0, R);
  trace::write(Spans, O.RunDir + "/trace-" + O.Workload + ".jsonl", 50000);
  if (O.Workload == "warm-script")
    probeServeStack(O, C, R);
}

} // namespace perfbench
