//===- support/FaultInject.h - Deterministic fault-injection switches ----===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic fault-injection harness shared by the serve
/// subsystem, the sharded front, the batch engine, and the client driver
/// (docs/SERVE.md, docs/FRONT.md). A FaultConfig is parsed from a
/// comma-separated spec - the IRLT_FAULT environment variable or an
/// explicit --fault flag - and threaded to the layer that owns each
/// failure mode:
///
///   short-read       server reads one byte per recv, exercising frame
///                    reassembly on maximally fragmented input
///   truncated-frame  client sends half a frame and closes
///   oversized-record client declares a payload above the frame cap
///   lying-length     client declares a length larger than it sends
///   garbage-frame    client sends bytes that are not a frame at all
///   slow-client      client stalls without reading its responses
///   cache-corrupt    journal loader flips one byte per entry line,
///                    exercising the discard-and-continue path
///   dump-partial     journal dump writes half the temp file and then
///                    _exit()s, simulating SIGKILL mid-dump (the rename
///                    never happens, so the previous dump survives)
///   worker-throw     the engine throws from a worker for requests whose
///                    id contains "boom", exercising the structured
///                    internal-error path
///   worker-kill      the serve worker dumps its journal and _exit(137)s
///                    right after *delivering* the response for requests
///                    whose id contains "kill" - a deterministic crash
///                    that takes every other in-flight request on that
///                    shard down with it (the front answers them with
///                    retryable "shard_down" records and restarts the
///                    worker warm from its journal)
///   worker-hang      the serve worker sleeps forever *before* processing
///                    requests whose id contains "hang" - a wedged worker
///                    the front's pending-age watchdog must SIGKILL
///   worker-slow-start irlt-serve sleeps ~1 s before binding its socket,
///                    exercising the front's bounded startup probing
///
/// Every fault is deterministic: no timers, no randomness - the same
/// traffic under the same spec fails the same way on every run, which is
/// what lets the integration tests assert exact structured errors.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SUPPORT_FAULTINJECT_H
#define IRLT_SUPPORT_FAULTINJECT_H

#include "support/ErrorOr.h"

#include <string>
#include <vector>

namespace irlt {

/// Which faults are armed. Default-constructed = no faults.
struct FaultConfig {
  bool ShortRead = false;
  bool TruncatedFrame = false;
  bool OversizedRecord = false;
  bool LyingLength = false;
  bool GarbageFrame = false;
  bool SlowClient = false;
  bool CacheCorrupt = false;
  bool DumpPartial = false;
  bool WorkerThrow = false;
  bool WorkerKill = false;
  bool WorkerHang = false;
  bool WorkerSlowStart = false;

  bool any() const {
    return ShortRead || TruncatedFrame || OversizedRecord || LyingLength ||
           GarbageFrame || SlowClient || CacheCorrupt || DumpPartial ||
           WorkerThrow || WorkerKill || WorkerHang || WorkerSlowStart;
  }
  bool operator==(const FaultConfig &) const = default;
};

/// Parses a comma-separated fault spec ("worker-throw,dump-partial").
/// The empty string parses to no faults; an unknown name is an error
/// naming the valid kinds.
ErrorOr<FaultConfig> parseFaultSpec(const std::string &Spec);

/// parseFaultSpec(getenv("IRLT_FAULT")); an unset variable means no
/// faults, and a malformed value is reported through \p Err (the caller
/// decides whether that is fatal).
FaultConfig faultsFromEnv(std::string *Err = nullptr);

/// Every valid fault-kind name, in the canonical (documented) order.
/// Backs the tools' `--fault list` mode and keeps the parse error
/// message, the renderer, and the docs in sync from one table.
const std::vector<std::string> &faultKindNames();

/// Serializes \p F back into a parseFaultSpec-compatible comma-separated
/// spec; the empty string when no faults are armed. irlt-front uses this
/// to forward its own --fault spec to the worker processes it spawns.
std::string renderFaultSpec(const FaultConfig &F);

/// The substring of a request id that triggers worker-throw.
inline constexpr const char *WorkerThrowIdMarker = "boom";
/// The substring of a request id that triggers worker-kill.
inline constexpr const char *WorkerKillIdMarker = "kill";
/// The substring of a request id that triggers worker-hang.
inline constexpr const char *WorkerHangIdMarker = "hang";

} // namespace irlt

#endif // IRLT_SUPPORT_FAULTINJECT_H
