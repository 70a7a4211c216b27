//===- serve/Listener.h - The connection layer of serve and front --------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The connection layer irlt-serve (serve/Server.h) and irlt-front
/// (front/Front.h) share: the listening socket (Unix-domain or loopback
/// TCP), an accept thread that answers connections past MaxConns with one
/// structured "overloaded" record and a close, and one reader thread per
/// connection that hands each frame (serve/Frame.h) to the owner's
/// dispatch function. A framing error, or EOF inside a frame, gets one
/// structured "bad_frame" record and a close. deliver() writes each
/// connection's responses in request order (a completed-prefix reorder
/// buffer), so clients can pipeline frames; writes carry SO_SNDTIMEO, so
/// a stalled client loses its connection, never a worker.
///
/// Drain: requestDrain() is async-signal-safe (one byte into a
/// self-pipe); the accept thread then stops accepting and draining()
/// turns true; drain() wakes every blocked reader (buffered complete
/// frames still dispatch) and joins it.
///
/// Every descriptor is close-on-exec from birth: the front forks workers
/// and the server forks compilers while these threads run, and an
/// inherited socket would hold a client connection open after the
/// daemon closed it.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SERVE_LISTENER_H
#define IRLT_SERVE_LISTENER_H

#include "serve/Frame.h"
#include "support/ErrorOr.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace irlt {
namespace serve {

/// The connection counters; ServerStats and FrontStats extend them.
struct ListenerStats {
  std::atomic<uint64_t> ConnsAccepted{0};
  std::atomic<uint64_t> ConnsRejected{0}; ///< over MaxConns
  std::atomic<uint64_t> FramesIn{0};
  std::atomic<uint64_t> BadFrames{0}; ///< framing errors
  std::atomic<uint64_t> WriteFailures{0};
};

/// One client connection, opaque to the owner: the reader thread and any
/// number of pending responses share it, and the last reference closes
/// the socket, so responses can still flow after the client half-closes
/// its write side.
struct Conn;
using ConnPtr = std::shared_ptr<Conn>;

struct ListenerOptions {
  /// The owner's short name: diagnostics read "<Name>: ..." and reject
  /// records carry the tool "irlt-<Name>".
  std::string Name;
  /// Unix-domain socket path; exclusive with TcpPort.
  std::string SocketPath;
  /// >= 0: listen on 127.0.0.1:TcpPort instead (0 = kernel-assigned).
  int TcpPort = -1;
  unsigned MaxConns = 64;
  size_t MaxFrameBytes = DefaultMaxPayloadBytes;
  /// SO_SNDTIMEO for response writes (0 = no timeout).
  uint64_t WriteTimeoutMillis = 5000;
  /// The short-read fault: one-byte socket reads.
  bool ShortRead = false;
};

class Listener {
public:
  /// Called on a reader thread for each complete frame.
  using DispatchFn =
      std::function<void(const ConnPtr &C, uint64_t Seq, std::string Payload)>;

  Listener(ListenerOptions Opts, ListenerStats &Stats, DispatchFn Dispatch);
  /// Closes the descriptors and removes the socket path.
  ~Listener();

  Listener(const Listener &) = delete;
  Listener &operator=(const Listener &) = delete;

  /// Binds, listens and opens the drain pipe; a structured diagnostic on
  /// failure.
  ErrorOr<bool> open();
  /// Spawns the accept thread.
  void start();
  bool started() const { return AcceptThread.joinable(); }

  /// Async-signal-safe drain trigger (writes one byte to a self-pipe).
  void requestDrain();
  /// Set by the accept thread once a drain was requested.
  bool draining() const { return Draining.load(); }
  /// Blocks until a drain was requested, then wakes and joins every
  /// reader. Every frame a reader dispatched is in the owner's hands.
  void drain();

  /// The bound TCP port (after open(), TCP mode only; else 0).
  int boundPort() const { return BoundPort; }

  /// Queues \p Record as the response with sequence number \p Seq on
  /// \p C and writes every response that completes the in-order prefix.
  void deliver(const ConnPtr &C, uint64_t Seq, const std::string &Record);

private:
  /// Reader-thread bookkeeping: joined opportunistically by the accept
  /// loop (Done) and finally at drain.
  struct ReaderSlot {
    std::thread T;
    std::atomic<bool> Done{false};
  };

  void acceptLoop();
  void readLoop(const ConnPtr &C);
  void rejectFrame(const ConnPtr &C, const std::string &Message);

  ListenerOptions Opts;
  std::string Tool;
  ListenerStats &Stats;
  DispatchFn Dispatch;

  int ListenFd = -1;
  int BoundPort = 0;
  int PipeR = -1, PipeW = -1;
  std::atomic<bool> Draining{false};

  // Live reader-side sockets, so drain can wake blocked reads.
  std::mutex ConnMu;
  std::set<int> LiveFds;

  std::vector<std::unique_ptr<ReaderSlot>> Readers; // accept thread only
  std::thread AcceptThread;
};

} // namespace serve
} // namespace irlt

#endif // IRLT_SERVE_LISTENER_H
