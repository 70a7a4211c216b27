//===- engine/Engine.h - High-throughput batch pipeline engine -----------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch pipeline engine behind irlt-batch (docs/API.md) and the
/// per-request core of irlt-serve (docs/SERVE.md): accepts ndjson
/// requests (engine/Wire.h), executes them on a worker pool that shares
/// one api::Pipeline - and therefore shares the dependence-analysis and
/// legality memoization caches - and emits one versioned JSON result
/// record per request.
///
/// Determinism contract: the result stream is *byte-identical for any
/// worker count*. Workers claim requests by atomic index and fill
/// preallocated result slots; the caller's sink receives completed
/// records strictly in input order (a completed-prefix flusher, so
/// emission streams while later requests are still in flight). Every
/// per-request computation is deterministic (search runs with one
/// thread per request - the engine's parallelism is *across* requests -
/// and validation runs with reproducer dumping and wall budgets off),
/// and nothing time- or thread-dependent is written into result records.
/// The only timing-dependent outcomes are the ones a caller explicitly
/// opts into - a DeadlineToken (irlt-serve) or a stop flag (SIGINT/
/// SIGTERM) - and both produce documented structured records, never a
/// torn one.
///
/// Ingestion is hardened per record: an oversized line, an embedded NUL
/// byte, CR/LF line endings, or a truncated final line each degrade to a
/// structured per-record diagnostic (error kind below) while the rest of
/// the batch keeps going.
///
/// Metrics (requests served, cache hit rates, p50/p95 per-stage latency,
/// worker utilization) are collected per worker and merged after the
/// run; they live outside the result stream precisely because latencies
/// are not deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_ENGINE_ENGINE_H
#define IRLT_ENGINE_ENGINE_H

#include "api/Pipeline.h"
#include "engine/Wire.h"
#include "support/FaultInject.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace irlt {
namespace engine {

/// Engine configuration.
struct EngineOptions {
  /// Worker threads (>= 1). The result stream is identical for any value.
  unsigned Jobs = 1;
  /// Shared memoization caches (api::PipelineOptions::EnableCache).
  bool EnableCache = true;
  /// Per-cache entry bound (api::PipelineOptions::CacheCapacity): 0 bounds
  /// each cache at 4,096 entries. Eviction never changes any result record.
  size_t CacheCapacity = 0;
  /// Force validation of every request with this instance budget
  /// (irlt-batch --validate[=N]); per-request "validate" fields win.
  uint64_t ForcedValidateBudget = 0;
  /// Force native (compile-and-run, docs/CODEGEN.md) validation of
  /// every request (irlt-batch --validate=native); per-request
  /// "validate" fields win.
  bool ForcedValidateNative = false;
  /// Request lines longer than this produce a structured
  /// "oversized_line" error record instead of being parsed (the line
  /// content is never echoed back). Default 1 MiB.
  size_t MaxLineBytes = 1u << 20;
  /// Cooperative interruption (signal handlers set this): workers finish
  /// their in-flight record, skip unstarted ones, and the sink receives
  /// a clean completed prefix of the stream. Null = never interrupted.
  const std::atomic<bool> *StopFlag = nullptr;
  /// Deterministic fault injection (support/FaultInject.h). The engine
  /// honors WorkerThrow: requests whose id contains "boom" throw from
  /// the worker, which degrades to a structured "internal" error record.
  FaultConfig Faults;
  /// The "tool" field of emitted records ("irlt-batch" from the batch
  /// driver, "irlt-serve" from the daemon).
  std::string ToolName = "irlt-batch";
  /// Fill RequestOutcome::NestKey/NestSource/Script on success, so the
  /// serve layer can journal cache-warming sources (docs/SERVE.md).
  bool CollectNestKeys = false;
};

/// Names of the measured pipeline stages, in reporting order.
enum class Stage : unsigned {
  Parse,    ///< loop-language parsing
  Deps,     ///< dependence analysis (cache included)
  Plan,     ///< script parsing or beam search
  Legality, ///< the uniform legality test (cache included)
  Apply,    ///< bounds pipeline + rendering
  Validate, ///< bounded concrete-execution validation
  Total,    ///< whole request
};
inline constexpr unsigned NumStages = 7;
const char *stageName(Stage S);

/// The stable machine-readable failure taxonomy: every "ok": false
/// record carries error.kind with one of these strings (docs/SERVE.md
/// documents the full matrix). Kept as named constants so the engine,
/// the serve layer, and the tests agree by identifier instead of by
/// string literal.
namespace errkind {
inline constexpr const char *Request = "request";        ///< malformed line
inline constexpr const char *OversizedLine = "oversized_line";
inline constexpr const char *EmbeddedNul = "embedded_nul";
inline constexpr const char *Nest = "nest";              ///< nest parse
inline constexpr const char *DepsOverflow = "deps_overflow";
inline constexpr const char *Script = "script";          ///< script parse
inline constexpr const char *Search = "search";
inline constexpr const char *ReduceOverflow = "reduce_overflow";
inline constexpr const char *Apply = "apply";
inline constexpr const char *Deadline = "deadline";
inline constexpr const char *Overloaded = "overloaded";  ///< serve shed
inline constexpr const char *BadFrame = "bad_frame";     ///< serve framing
inline constexpr const char *Draining = "draining";      ///< serve shutdown
inline constexpr const char *ShardDown = "shard_down";   ///< front: worker died
inline constexpr const char *Internal = "internal";      ///< worker exception
} // namespace errkind

/// A per-request cancellation deadline, checked at stage boundaries:
/// a request whose deadline has passed is cut off *between* stages with
/// a structured "deadline" error record. The stages that can run long
/// also stop inside: an auto request's search polls it before every work
/// unit, and validation starts no candidate after it and kills a native
/// compile or run when it passes. A cancelled stage is discarded whole,
/// so no partial state ever escapes. Deadlines are the serve path's tool; the
/// batch driver never sets one (it would break byte-identical replay).
class DeadlineToken {
public:
  using Clock = std::chrono::steady_clock;

  DeadlineToken() = default;
  explicit DeadlineToken(Clock::time_point Deadline)
      : Armed(true), Deadline(Deadline) {}

  static DeadlineToken afterMillis(uint64_t Millis) {
    return DeadlineToken(Clock::now() + std::chrono::milliseconds(Millis));
  }

  bool armed() const { return Armed; }
  bool expired() const { return Armed && Clock::now() >= Deadline; }
  /// The expiry time, when armed.
  std::optional<Clock::time_point> deadline() const {
    return Armed ? std::optional<Clock::time_point>(Deadline) : std::nullopt;
  }

private:
  bool Armed = false;
  Clock::time_point Deadline{};
};

/// Per-worker latency samples, merged into EngineMetrics after a run.
/// Serve workers, which report no latency, take a fresh one per job.
struct StageSampler {
  std::vector<uint64_t> SamplesNs[NumStages];
};

/// The outcome of one request.
struct RequestOutcome {
  std::string Record; ///< the complete JSON result record
  bool Error = false;
  bool Illegal = false;
  /// error.kind when Error (one of errkind::*); empty otherwise.
  std::string ErrorKind;
  /// Cache-journal sources (only when EngineOptions::CollectNestKeys and
  /// the nest parsed): the canonical fingerprint, the nest source, and
  /// the script text (empty in auto mode).
  std::string NestKey;
  std::string NestSource;
  std::string Script;
};

/// Serves one request line against \p P. Everything deterministic: the
/// record depends only on the line's content (and the engine options),
/// never on timing, worker identity, or cache state - except when \p DL
/// is armed, in which case expiry yields a structured "deadline" record.
/// Throws only under the WorkerThrow fault (callers catch and degrade to
/// an "internal" record; see makeErrorRecord).
RequestOutcome processRequest(api::Pipeline &P, const EngineOptions &EO,
                              const std::string &Line, uint64_t LineNo,
                              StageSampler &Sampler,
                              const DeadlineToken *DL = nullptr);

/// Renders a standalone failure record: the standard prologue for
/// \p Tool, then {"id", "ok": false, "error": {"kind", "message",
/// "diags"?}}. Shared by the engine workers and the serve layer (which
/// needs overload/protocol/drain records without a request to process).
std::string makeErrorRecord(const std::string &Tool, const std::string &Id,
                            const std::string &Kind,
                            const std::string &Message,
                            const std::vector<Diag> *Diags = nullptr);

/// Merged percentile summary of one stage.
struct StageMetrics {
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
  uint64_t P50Ns = 0;
  uint64_t P95Ns = 0;
};

/// The post-run metrics block.
struct EngineMetrics {
  uint64_t Requests = 0;
  /// Records actually delivered to the sink (== Requests unless the run
  /// was interrupted).
  uint64_t Served = 0;
  /// Records with "ok": false (malformed request, parse failure, ...).
  uint64_t Errors = 0;
  /// Script-mode requests whose sequence the legality test rejected
  /// (served successfully; counted for observability).
  uint64_t Illegal = 0;
  /// The stop flag fired: the sink received a clean completed prefix and
  /// the rest of the batch was skipped.
  bool Interrupted = false;
  unsigned Jobs = 1;
  uint64_t WallNs = 0;
  /// Sum of per-worker busy time; utilization = Busy / (Jobs * Wall).
  uint64_t BusyNs = 0;
  api::CacheStats Cache;
  StageMetrics Stages[NumStages];

  double workerUtilization() const {
    return WallNs && Jobs ? static_cast<double>(BusyNs) /
                                (static_cast<double>(WallNs) * Jobs)
                          : 0.0;
  }

  /// The metrics block as one JSON record (same schema prologue as the
  /// result records, "record": "metrics").
  std::string toJson() const;
};

/// Merges per-stage latency samples into the percentile summary.
StageMetrics summarizeStage(std::vector<uint64_t> &&SamplesNs);

/// The engine. Reusable: each run() processes one corpus; the caches
/// persist across runs of the same engine instance.
class BatchEngine {
public:
  explicit BatchEngine(EngineOptions Opts = {});

  /// Processes \p Lines (one ndjson request per line; blank lines are
  /// ignored) and calls \p Sink once per request, in input order, with
  /// the result record (no trailing newline). Blocks until done (or
  /// until the stop flag cuts the run short; see EngineMetrics).
  EngineMetrics run(const std::vector<std::string> &Lines,
                    const std::function<void(const std::string &)> &Sink);

  /// Convenience for tests and benchmarks: concatenates all records
  /// (newline-terminated) into one string.
  std::string runToString(const std::vector<std::string> &Lines,
                          EngineMetrics *MetricsOut = nullptr);

  /// The shared pipeline (exposes cache stats and manual cache control).
  api::Pipeline &pipeline() { return P; }

private:
  EngineOptions Opts;
  api::Pipeline P;
};

/// Splits a whole ndjson document into lines (no trailing-newline
/// requirement). A line's trailing '\r' is stripped, so CRLF corpora
/// parse like LF ones; shared by the tool and tests.
std::vector<std::string> splitLines(const std::string &Text);

} // namespace engine
} // namespace irlt

#endif // IRLT_ENGINE_ENGINE_H
