//===- serve/Server.h - The irlt-serve daemon core -----------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived service core behind tools/irlt-serve (docs/SERVE.md):
/// accepts framed connections (serve/Frame.h) on a Unix-domain or
/// loopback TCP socket (serve/Listener.h, the connection layer it shares
/// with irlt-front), admits request frames into a bounded queue, and
/// executes them on a worker pool that shares one api::Pipeline - the
/// same engine::processRequest core as irlt-batch, so a given request
/// line produces a byte-identical result record in both tools, with a
/// cold, warm, or journal-restored cache, at any worker count.
///
/// Robustness structure:
///
///   admission    the queue is bounded (QueueCapacity); a full queue
///                sheds the request with a structured "overloaded"
///                record instead of queueing unboundedly
///   deadlines    each request carries deadline_ms (or the server
///                default), measured from *arrival*; expiry cancels at
///                stage boundaries with a structured "deadline" record
///   connections  serve/Listener.h: the connection limit, in-order
///                responses (clients can pipeline frames), write
///                timeouts, and structured "bad_frame" rejects
///   drain        requestDrain() (async-signal-safe; SIGTERM/SIGINT
///                handlers call it) stops accepting, completes every
///                admitted request, flushes every response, persists
///                the cache journal, and run() returns - zero in-flight
///                requests lost
///   persistence  serve/Journal.h: crash-safe dump on drain (and on the
///                "persist" op), tolerant replay on start
///
/// Inline ops (answered without queueing, but in-order with the
/// connection's requests): {"op":"healthz"}, {"op":"statz"},
/// {"op":"persist"}.
///
/// Forwarding envelope: {"op":"fwd","line_no":N,"req":"<payload>"}
/// processes <payload> exactly as if it had arrived as the N-th request
/// line of its connection. irlt-front (docs/FRONT.md) multiplexes many
/// client connections onto one worker connection per shard and uses the
/// envelope to keep default ids and parse-error messages - both derived
/// from the line number - byte-identical to a direct single-process run.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SERVE_SERVER_H
#define IRLT_SERVE_SERVER_H

#include "serve/Frame.h"
#include "serve/Journal.h"
#include "serve/Listener.h"
#include "support/FaultInject.h"
#include "support/Printing.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace irlt {
namespace serve {

/// Daemon configuration.
struct ServeOptions {
  /// Unix-domain socket path; exclusive with TcpPort.
  std::string SocketPath;
  /// >= 0: listen on 127.0.0.1:TcpPort instead (0 = kernel-assigned,
  /// reported by Server::boundPort()).
  int TcpPort = -1;
  /// Worker threads executing requests.
  unsigned Jobs = 1;
  /// api::Pipeline cache knobs (shared across all requests).
  bool EnableCache = true;
  size_t CacheCapacity = 0;
  /// Admission-queue bound; a full queue sheds with "overloaded".
  size_t QueueCapacity = 64;
  /// Concurrent-connection bound; excess connections get one
  /// "overloaded" record and a close.
  unsigned MaxConns = 64;
  /// Deadline applied to requests that carry none (0 = none).
  uint64_t DefaultDeadlineMillis = 0;
  /// Per-frame payload bound (serve/Frame.h).
  size_t MaxFrameBytes = DefaultMaxPayloadBytes;
  /// SO_SNDTIMEO for response writes (0 = no timeout).
  uint64_t WriteTimeoutMillis = 5000;
  /// Cache-journal file; empty disables persistence.
  std::string PersistPath;
  /// Journal capacity (entries); 0 = unbounded.
  size_t JournalCapacity = 0;
  /// Deterministic fault injection (support/FaultInject.h). The server
  /// honors ShortRead (1-byte socket reads), WorkerThrow (via the
  /// engine), DumpPartial and CacheCorrupt (via the journal), and the
  /// front-recovery faults WorkerKill (journal dump + _exit(137) after
  /// delivering a response whose id contains "kill") and WorkerHang
  /// (worker thread sleeps before processing an id containing "hang").
  FaultConfig Faults;

  bool operator==(const ServeOptions &) const = default;
  /// The connection-layer subset, for the daemon named \p Name.
  ListenerOptions listener(std::string Name) const;
};

/// A tool's own flag hook for parseServeArgs: it sees each argument that
/// is not an irlt-serve flag, and returns nothing to decline it, else
/// whether its value was accepted (a rejection has printed its error
/// line).
using ExtraFlags = std::function<std::optional<bool>(ArgCursor &)>;

/// irlt-serve's command line: reads IRLT_FAULT, then every irlt-serve
/// flag into \p O, offering any other argument to \p Extra. A missing or
/// rejected value prints one "error:" line; --journal-cap defaults to
/// --cache-cap. \returns the exit status when the tool should stop
/// (0 after --help, which prints \p Usage, or a fault listing; 1 after an
/// error), nothing when it should run.
std::optional<int> parseServeArgs(int Argc, char **Argv, ServeOptions &O,
                                  void (*Usage)(const char *Argv0),
                                  const ExtraFlags &Extra = nullptr);

/// The flags that parseServeArgs() reads back into \p O, field for field
/// (IRLT_FAULT unset).
std::vector<std::string> renderServeArgs(const ServeOptions &O);

/// Monotonic counters, readable while the server runs (statz) and after
/// run() returns (the tool's exit record); the connection counters come
/// from ListenerStats. Reconciliation invariant:
///   FramesIn == InlineOps + Admitted + Shed + DrainRejects
///   Admitted == Served(results) with no request lost on drain
struct ServerStats : ListenerStats {
  std::atomic<uint64_t> InlineOps{0};
  std::atomic<uint64_t> Admitted{0};
  std::atomic<uint64_t> Shed{0};         ///< "overloaded" rejects
  std::atomic<uint64_t> DrainRejects{0}; ///< "draining" rejects
  std::atomic<uint64_t> Deadline{0};     ///< "deadline" records
  std::atomic<uint64_t> Served{0};       ///< result records written
  std::atomic<uint64_t> Errors{0};       ///< "ok": false results
};

/// The daemon. Lifecycle: construct, start() (binds, spawns threads; a
/// structured diagnostic on failure), run() (blocks until drained),
/// with requestDrain() callable from any thread or signal handler.
class Server {
public:
  explicit Server(ServeOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket, loads/replays the cache journal, spawns the
  /// accept loop and the worker pool.
  ErrorOr<bool> start();

  /// Blocks until a drain completes. Returns false if any response
  /// write failed (the tool maps that to a nonzero exit).
  bool run();

  /// Async-signal-safe drain trigger (writes one byte to a self-pipe).
  void requestDrain();

  /// The bound TCP port (after start(), TCP mode only; else 0).
  int boundPort() const;

  const ServerStats &stats() const;
  /// What loading PersistPath did at start().
  const JournalLoadResult &journalLoad() const;
  /// Entries dumped by the drain-time persist (0 when disabled).
  uint64_t persistedEntries() const;

private:
  struct Impl;
  std::unique_ptr<Impl> M;
};

} // namespace serve
} // namespace irlt

#endif // IRLT_SERVE_SERVER_H
