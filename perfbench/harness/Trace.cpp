//===- perfbench/harness/Trace.cpp - In-memory span tracing ---------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Bench.h"

#include "api/Pipeline.h"
#include "cgen/NativeRunner.h"
#include "engine/Engine.h"
#include "ir/NestHash.h"
#include "legality/IncrementalEngine.h"
#include "search/CostModel.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

using namespace irlt;

namespace perfbench {
namespace trace {

namespace {

/// Per-thread span storage, registered once and kept until exit so spans
/// of finished threads (serve workers) can still be collected.
struct ThreadBuf {
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
  uint32_t Req = 0;
  uint16_t Id = 0;
};

/// Bounds a traced run's memory; spans past it are counted, not kept.
constexpr size_t MaxSpansPerThread = 1u << 20;

std::atomic<bool> Enabled{false};
std::atomic<uint8_t> CurPhase{0};
std::atomic<uint32_t> NextReq{0};
std::atomic<uint64_t> Dropped{0};
std::atomic<uint64_t> PairsZiv{0}, PairsGcd{0}, PairsFm{0}, PairsCons{0};

std::mutex RegistryMu;
std::vector<std::unique_ptr<ThreadBuf>> Registry;
thread_local ThreadBuf *TB = nullptr;

ThreadBuf &threadBuf() {
  if (!TB) {
    std::lock_guard<std::mutex> Lock(RegistryMu);
    Registry.push_back(std::make_unique<ThreadBuf>());
    TB = Registry.back().get();
    TB->Id = static_cast<uint16_t>(Registry.size() - 1);
    TB->Spans.reserve(MaxSpansPerThread / 4);
  }
  return *TB;
}

} // namespace

const char *layerName(Layer L) {
  static const char *Names[NumLayers] = {
      "request",   "engine",         "ir.parse",  "ir.fingerprint",
      "deps.lookup", "deps.analyze", "plan.script", "legality.check",
      "legality.walk", "search.request", "search.cost_measure",
      "transform.apply", "transform.emit", "analysis.analyze",
      "witness.validate", "cgen.native"};
  return L < NumLayers ? Names[L] : "?";
}

void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
void setPhase(Phase P) { CurPhase.store(P, std::memory_order_relaxed); }

Scope::Scope(Layer L) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  ThreadBuf &B = threadBuf();
  if (B.Spans.size() >= MaxSpansPerThread) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  bool Root = B.Open.empty();
  if (L == Request || (L == Engine && Root))
    B.Req = NextReq.fetch_add(1, std::memory_order_relaxed) + 1;
  Span S;
  S.L = L;
  S.Req = B.Req;
  S.Parent = Root ? NoParent : B.Open.back();
  S.Phase = CurPhase.load(std::memory_order_relaxed);
  S.Thread = B.Id;
  B.Open.push_back(static_cast<uint32_t>(B.Spans.size()));
  B.Spans.push_back(S);
  Active = true;
  B.Spans.back().Start = nowNs();
}

Scope::~Scope() {
  if (!Active)
    return;
  uint64_t End = nowNs();
  ThreadBuf &B = *TB;
  uint32_t Idx = B.Open.back();
  B.Open.pop_back();
  Span &S = B.Spans[Idx];
  S.End = End;
  if (S.Parent != NoParent) {
    Span &P = B.Spans[S.Parent];
    P.ChildNs += S.durNs();
    P.ChildMask |= 1u << S.L;
  }
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::vector<Span> All;
  for (const auto &B : Registry)
    All.insert(All.end(), B->Spans.begin(), B->Spans.end());
  if (uint64_t D = Dropped.load())
    Report::note("trace: " + std::to_string(D) +
                 " spans dropped past the per-thread bound");
  return All;
}

void reset() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  for (const auto &B : Registry) {
    B->Spans.clear();
    B->Open.clear();
  }
  Dropped = 0;
  PairsZiv = PairsGcd = PairsFm = PairsCons = 0;
}

void requireLayers(const std::vector<Span> &Spans,
                   std::initializer_list<Layer> Layers,
                   const std::string &Where, Report &R) {
  for (Layer L : Layers)
    if (std::none_of(Spans.begin(), Spans.end(),
                     [&](const Span &S) { return S.L == L; }))
      R.fail(Where + ": no " + layerName(L) +
             " span recorded; its wrapper no longer applies");
}

PairCounts pairCounts() {
  return {PairsZiv.load(), PairsGcd.load(), PairsFm.load(), PairsCons.load()};
}

void write(const std::vector<Span> &Spans, const std::string &Path,
           size_t MaxSpans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    Report::note("trace: cannot write " + Path);
    return;
  }
  auto Id = [](uint16_t Thread, uint32_t Idx) {
    return (static_cast<uint64_t>(Thread) << 32) | Idx;
  };
  // Spans are stored per thread in start order, so a span's index within
  // its thread is its position minus the thread's first position.
  std::vector<size_t> FirstOfThread;
  for (size_t I = 0; I < Spans.size() && I < MaxSpans; ++I) {
    const Span &S = Spans[I];
    if (S.Thread >= FirstOfThread.size())
      FirstOfThread.resize(S.Thread + 1, I);
    uint32_t Local = static_cast<uint32_t>(I - FirstOfThread[S.Thread]);
    std::fprintf(F,
                 "{\"id\":%llu,\"parent\":%lld,\"req\":%u,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"phase\":%u}\n",
                 static_cast<unsigned long long>(Id(S.Thread, Local)),
                 S.Parent == NoParent
                     ? -1LL
                     : static_cast<long long>(Id(S.Thread, S.Parent)),
                 S.Req, layerName(S.L),
                 static_cast<unsigned long long>(S.Start),
                 static_cast<unsigned long long>(S.End),
                 static_cast<unsigned>(S.Phase));
  }
  std::fclose(F);
}

} // namespace trace
} // namespace perfbench

//===----------------------------------------------------------------------===//
// The wrapped entry points. The build passes --wrap=<symbol> for every
// PERFBENCH_SYM_ line below (CMakeLists.txt reads them from this file), so
// calls to <symbol> from other objects land in __wrap_<symbol>, which opens
// a span and calls __real_<symbol>. A member function is declared here as
// a free function taking `this` first, which is how the Itanium C++ ABI
// passes it. Two checks keep a wrapper from going stale: each names the
// function's exact C++ type, which breaks the build if the declaration
// changes (a return type is not part of the mangled name, so nothing else
// would catch it), and the __real_ references are strong, so a mangled
// name that no longer exists fails the link.
//===----------------------------------------------------------------------===//

#define PERFBENCH_SYM_LOAD_NEST "_ZNK4irlt3api8Pipeline8loadNestERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define PERFBENCH_SYM_FINGERPRINT "_ZN4irlt16canonicalNestKeyB5cxx11ERKNS_8LoopNestE"
#define PERFBENCH_SYM_DEPENDENCES "_ZN4irlt3api8Pipeline11dependencesERKNS_8LoopNestEPb"
#define PERFBENCH_SYM_ANALYZE_DEPS "_ZN4irlt18analyzeDependencesERKNS_8LoopNestERKNS_18DepAnalysisOptionsERSt6vectorINS_11DepPairInfoESaIS7_EE"
#define PERFBENCH_SYM_PARSE_SCRIPT "_ZNK4irlt3api8Pipeline11parseScriptERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEj"
#define PERFBENCH_SYM_CHECK_LEGALITY "_ZN4irlt3api8Pipeline13checkLegalityERKNS_17TransformSequenceERKNS_8LoopNestE"
#define PERFBENCH_SYM_ENGINE_CHECK "_ZN4irlt8legality17IncrementalEngine5checkERKNS_17TransformSequenceERKNS_8LoopNestERKNS_6DepSetENS0_4ModeE"
#define PERFBENCH_SYM_SEARCH_AUTO "_ZN4irlt3api8Pipeline10searchAutoERKNS_8LoopNestERKNS_6search13SearchOptionsE"
#define PERFBENCH_SYM_MISS_RATIO "_ZN4irlt6search9CostModel9missRatioERKNS_17TransformSequenceERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define PERFBENCH_SYM_APPLY "_ZNK4irlt3api8Pipeline5applyERKNS_17TransformSequenceERKNS_8LoopNestE"
#define PERFBENCH_SYM_EMIT "_ZNK4irlt3api8Pipeline4emitB5cxx11ERKNS_8LoopNestENS0_8EmitKindE"
#define PERFBENCH_SYM_ANALYZE "_ZN4irlt3api8Pipeline7analyzeERKNS_17TransformSequenceERKNS_8LoopNestERKNS_8analysis15AnalysisOptionsE"
#define PERFBENCH_SYM_VALIDATE "_ZNK4irlt3api8Pipeline8validateERKNS_8LoopNestERKSt6vectorINS_17TransformSequenceESaIS6_EERKNS_7witness15ValidateOptionsE"
#define PERFBENCH_SYM_RUN_NATIVE "_ZN4irlt4cgen9runNativeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_16NativeRunOptionsE"
#define PERFBENCH_SYM_PROCESS_REQUEST "_ZN4irlt6engine14processRequestERNS_3api8PipelineERKNS0_13EngineOptionsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEmRNS0_12StageSamplerEPKNS0_13DeadlineTokenE"

/// Compiles only if FN (an overload set is fine) has a function of exactly
/// type TYPE.
#define PERFBENCH_SIGNATURE(FN, TYPE)                                          \
  static_assert(sizeof(static_cast<TYPE>(&FN)) != 0, #FN " changed type")

#define PERFBENCH_WRAP(LAYER, SYM, FN, TYPE, RET, NAME, PARAMS, ARGS)         \
  PERFBENCH_SIGNATURE(FN, TYPE);                                               \
  RET real_##NAME PARAMS __asm__("__real_" SYM);                               \
  RET wrap_##NAME PARAMS __asm__("__wrap_" SYM);                               \
  RET wrap_##NAME PARAMS {                                                     \
    perfbench::trace::Scope WrapSpan(perfbench::trace::LAYER);                 \
    return real_##NAME ARGS;                                                   \
  }

namespace perfbench {
namespace wrapped {

PERFBENCH_WRAP(Parse, PERFBENCH_SYM_LOAD_NEST, api::Pipeline::loadNest,
               ErrorOr<LoopNest> (api::Pipeline::*)(const std::string &) const,
               ErrorOr<LoopNest>, loadNest,
               (const api::Pipeline *P, const std::string &Src), (P, Src))
PERFBENCH_WRAP(Fingerprint, PERFBENCH_SYM_FINGERPRINT, canonicalNestKey,
               std::string (*)(const LoopNest &), std::string,
               canonicalNestKey, (const LoopNest &N), (N))
PERFBENCH_WRAP(DepsLookup, PERFBENCH_SYM_DEPENDENCES, api::Pipeline::dependences,
               std::shared_ptr<const DepSet> (api::Pipeline::*)(const LoopNest &,
                                                                bool *),
               std::shared_ptr<const DepSet>, dependences,
               (api::Pipeline * P, const LoopNest &N, bool *Ov), (P, N, Ov))
PERFBENCH_WRAP(Script, PERFBENCH_SYM_PARSE_SCRIPT, api::Pipeline::parseScript,
               ErrorOr<TransformSequence> (api::Pipeline::*)(
                   const std::string &, unsigned) const,
               ErrorOr<TransformSequence>,
               parseScript,
               (const api::Pipeline *P, const std::string &S, unsigned Loops),
               (P, S, Loops))
PERFBENCH_WRAP(Legality, PERFBENCH_SYM_CHECK_LEGALITY,
               api::Pipeline::checkLegality,
               LegalityResult (api::Pipeline::*)(const TransformSequence &,
                                                 const LoopNest &),
               LegalityResult,
               checkLegality,
               (api::Pipeline * P, const TransformSequence &T,
                const LoopNest &N),
               (P, T, N))
PERFBENCH_WRAP(LegalityWalk, PERFBENCH_SYM_ENGINE_CHECK,
               legality::IncrementalEngine::check,
               LegalityResult (legality::IncrementalEngine::*)(
                   const TransformSequence &, const LoopNest &, const DepSet &,
                   legality::Mode),
               LegalityResult,
               engineCheck,
               (legality::IncrementalEngine * E, const TransformSequence &T,
                const LoopNest &N, const DepSet &D, legality::Mode M),
               (E, T, N, D, M))
PERFBENCH_WRAP(Search, PERFBENCH_SYM_SEARCH_AUTO, api::Pipeline::searchAuto,
               search::SearchResult (api::Pipeline::*)(
                   const LoopNest &, const search::SearchOptions &),
               search::SearchResult,
               searchAuto,
               (api::Pipeline * P, const LoopNest &N,
                const search::SearchOptions &SO),
               (P, N, SO))
PERFBENCH_WRAP(CostMeasure, PERFBENCH_SYM_MISS_RATIO,
               search::CostModel::missRatio,
               std::optional<double> (search::CostModel::*)(
                   const TransformSequence &, const std::string &),
               std::optional<double>,
               missRatio,
               (search::CostModel * CM, const TransformSequence &T,
                const std::string &Key),
               (CM, T, Key))
PERFBENCH_WRAP(Apply, PERFBENCH_SYM_APPLY, api::Pipeline::apply,
               ErrorOr<LoopNest> (api::Pipeline::*)(const TransformSequence &,
                                                    const LoopNest &) const,
               ErrorOr<LoopNest>, apply,
               (const api::Pipeline *P, const TransformSequence &T,
                const LoopNest &N),
               (P, T, N))
PERFBENCH_WRAP(Emit, PERFBENCH_SYM_EMIT, api::Pipeline::emit,
               std::string (api::Pipeline::*)(const LoopNest &, api::EmitKind)
                   const,
               std::string, emit,
               (const api::Pipeline *P, const LoopNest &N, api::EmitKind K),
               (P, N, K))
PERFBENCH_WRAP(Analyze, PERFBENCH_SYM_ANALYZE, api::Pipeline::analyze,
               analysis::AnalysisReport (api::Pipeline::*)(
                   const TransformSequence &, const LoopNest &,
                   const analysis::AnalysisOptions &),
               analysis::AnalysisReport,
               analyze,
               (api::Pipeline * P, const TransformSequence &T,
                const LoopNest &N, const analysis::AnalysisOptions &AO),
               (P, T, N, AO))
PERFBENCH_WRAP(Validate, PERFBENCH_SYM_VALIDATE, api::Pipeline::validate,
               witness::LadderResult (api::Pipeline::*)(
                   const LoopNest &, const std::vector<TransformSequence> &,
                   const witness::ValidateOptions &) const,
               witness::LadderResult,
               validate,
               (const api::Pipeline *P, const LoopNest &N,
                const std::vector<TransformSequence> &C,
                const witness::ValidateOptions &VO),
               (P, N, C, VO))
PERFBENCH_WRAP(Native, PERFBENCH_SYM_RUN_NATIVE, cgen::runNative,
               cgen::NativeResult (*)(const std::string &,
                                      const cgen::NativeRunOptions &),
               cgen::NativeResult,
               runNative,
               (const std::string &Program, const cgen::NativeRunOptions &RO),
               (Program, RO))
PERFBENCH_WRAP(Engine, PERFBENCH_SYM_PROCESS_REQUEST, engine::processRequest,
               engine::RequestOutcome (*)(api::Pipeline &,
                                          const engine::EngineOptions &,
                                          const std::string &, uint64_t,
                                          engine::StageSampler &,
                                          const engine::DeadlineToken *),
               engine::RequestOutcome,
               processRequest,
               (api::Pipeline & P, const engine::EngineOptions &EO,
                const std::string &Line, uint64_t LineNo,
                engine::StageSampler &Sampler,
                const engine::DeadlineToken *DL),
               (P, EO, Line, LineNo, Sampler, DL))

/// The dependence oracle's analysis, which also tallies which test decided
/// each reference pair.
PERFBENCH_SIGNATURE(analyzeDependences,
                    DepSet (*)(const LoopNest &, const DepAnalysisOptions &,
                               std::vector<DepPairInfo> &));
DepSet real_analyzeDependences(const LoopNest &N, const DepAnalysisOptions &O,
                               std::vector<DepPairInfo> &Pairs)
    __asm__("__real_" PERFBENCH_SYM_ANALYZE_DEPS);
DepSet wrap_analyzeDependences(const LoopNest &N, const DepAnalysisOptions &O,
                               std::vector<DepPairInfo> &Pairs)
    __asm__("__wrap_" PERFBENCH_SYM_ANALYZE_DEPS);
DepSet wrap_analyzeDependences(const LoopNest &N, const DepAnalysisOptions &O,
                               std::vector<DepPairInfo> &Pairs) {
  if (!trace::Enabled.load(std::memory_order_relaxed))
    return real_analyzeDependences(N, O, Pairs);
  size_t First = Pairs.size();
  DepSet D;
  {
    trace::Scope S(trace::DepsAnalyze);
    D = real_analyzeDependences(N, O, Pairs);
  }
  for (size_t I = First; I < Pairs.size(); ++I) {
    switch (Pairs[I].Decided) {
    case DepDecision::ZIV:
      ++trace::PairsZiv;
      break;
    case DepDecision::GCD:
      ++trace::PairsGcd;
      break;
    case DepDecision::FM:
      ++trace::PairsFm;
      break;
    case DepDecision::IllTyped:
    case DepDecision::NonLinear:
      ++trace::PairsCons;
      break;
    default: // a decision kind this harness does not know yet
      break;
    }
  }
  return D;
}

} // namespace wrapped
} // namespace perfbench
