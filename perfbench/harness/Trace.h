//===- perfbench/harness/Trace.h - In-memory span tracing -----------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans around the public entry point of each IRLT layer, recorded from
/// the harness's own files: the link step (CMakeLists.txt) routes calls to
/// those entry points through wrappers in Trace.cpp. Spans live in
/// per-thread memory while a run is traced and are written out when it
/// ends. With tracing off a wrapper costs one relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace perfbench {

struct Report;

namespace trace {

/// The traced layer boundaries (public entry points).
enum Layer : uint8_t {
  Request,      ///< one request as the harness issues it
  Engine,       ///< engine::processRequest
  Parse,        ///< api::Pipeline::loadNest
  Fingerprint,  ///< canonicalNestKey
  DepsLookup,   ///< api::Pipeline::dependences
  DepsAnalyze,  ///< analyzeDependences (the "pipeline" oracle on a miss)
  Script,       ///< api::Pipeline::parseScript
  Legality,     ///< api::Pipeline::checkLegality
  LegalityWalk, ///< legality::IncrementalEngine::check
  Search,       ///< api::Pipeline::searchAuto
  CostMeasure,  ///< search::CostModel::missRatio
  Apply,        ///< api::Pipeline::apply
  Emit,         ///< api::Pipeline::emit
  Analyze,      ///< api::Pipeline::analyze
  Validate,     ///< api::Pipeline::validate
  Native,       ///< cgen::runNative
  NumLayers
};
const char *layerName(Layer L);

/// One finished span. Parent is an index into the same thread's spans
/// (NoParent at a root); ChildNs sums the children's durations, which
/// never overlap because children run on their parent's thread.
struct Span {
  uint64_t Start = 0;
  uint64_t End = 0;
  uint64_t ChildNs = 0;
  uint32_t Req = 0;
  uint32_t Parent = 0;
  uint32_t ChildMask = 0; ///< bit L set when a direct child has layer L
  Layer L = Request;
  uint8_t Phase = 0;
  uint16_t Thread = 0;

  uint64_t durNs() const { return End - Start; }
  uint64_t selfNs() const { return durNs() - ChildNs; }
  bool hasChild(Layer C) const { return ChildMask & (1u << C); }
};
inline constexpr uint32_t NoParent = UINT32_MAX;

/// What the harness was doing when a span started.
enum Phase : uint8_t {
  Untraced, ///< set-up and untraced windows (nothing is recorded)
  Traced,   ///< the traced window the per-layer figures come from
  Probe,    ///< calls the harness makes only to time one layer
};

void setEnabled(bool On);
/// Spans record the phase that was current when they started.
void setPhase(Phase P);

/// RAII span. A Request span, or an Engine span with no open parent (a
/// serve worker thread), starts a new request id.
class Scope {
public:
  explicit Scope(Layer L);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  bool Active = false;
};

/// Every span recorded so far, from all threads. Call only while no traced
/// call is in flight.
std::vector<Span> collect();
/// Drops every recorded span and counter.
void reset();

/// Fails the run unless \p Spans hold a span of each of \p Layers: a layer
/// the workload reaches that recorded nothing would otherwise read as 0.
void requireLayers(const std::vector<Span> &Spans,
                   std::initializer_list<Layer> Layers,
                   const std::string &Where, Report &R);

/// Per-decision counts of the dependence pairs traced analyses decided.
struct PairCounts {
  uint64_t Ziv = 0, Gcd = 0, Fm = 0, Conservative = 0;
};
PairCounts pairCounts();

/// Writes up to \p MaxSpans spans as JSON lines (name, start, end, parent,
/// request id) to \p Path.
void write(const std::vector<Span> &Spans, const std::string &Path,
           size_t MaxSpans);

} // namespace trace
} // namespace perfbench

#endif // PERFBENCH_TRACE_H
