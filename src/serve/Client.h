//===- serve/Client.h - Framed-protocol client helpers -------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the irlt-serve wire protocol, shared by
/// tools/irlt-servectl, the serve integration tests, and
/// bench/bench_serve. Deliberately low-level (a connected fd plus
/// frame send/recv) so the fault-injection paths of servectl can also
/// write deliberately broken bytes on the same socket. The two socket
/// helpers at the end serve the listener (serve/Listener.h) and the
/// front's shard connections as well.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SERVE_CLIENT_H
#define IRLT_SERVE_CLIENT_H

#include "serve/Frame.h"
#include "support/ErrorOr.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace irlt {
namespace serve {

/// A connected client socket (RAII). Obtain via connectUnix/connectTcp.
class ClientConn {
public:
  ClientConn() = default;
  explicit ClientConn(int Fd) : Fd(Fd) {}
  ClientConn(ClientConn &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  ClientConn &operator=(ClientConn &&O) noexcept;
  ~ClientConn();

  ClientConn(const ClientConn &) = delete;
  ClientConn &operator=(const ClientConn &) = delete;

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Frames \p Payload and writes it. Under \p StallMillis > 0 the bytes
  /// go out one at a time with that delay between them - the slow-client
  /// fault shape (the server's SO_SNDTIMEO is on its *writes*; slow
  /// request bytes must merely be tolerated).
  bool sendFrame(std::string_view Payload, uint64_t StallMillis = 0);

  /// Writes raw bytes verbatim (the broken-frame fault shapes).
  bool sendRaw(std::string_view Bytes);

  /// Half-closes the write side, signalling "no more requests" while
  /// responses keep flowing.
  void finishWrites();

  /// Reads the next response frame's payload. Fails on EOF, a framing
  /// error, or (RecvTimeoutMillis > 0) a receive timeout.
  ErrorOr<std::string> recvFrame(uint64_t RecvTimeoutMillis = 0);

  /// sendFrame + recvFrame in one shot - the health-probe and inline-op
  /// fan-out shape irlt-front reuses on its long-lived per-shard
  /// connections. Requires no frames outstanding on this connection.
  ErrorOr<std::string> call(std::string_view Payload,
                            uint64_t RecvTimeoutMillis = 0);

  /// Detaches and returns the fd (the caller owns it; this connection
  /// becomes invalid). The front hands the fd to a dedicated response-
  /// reader thread while request writes keep targeting the raw fd.
  int release() {
    int F = Fd;
    Fd = -1;
    return F;
  }

private:
  int Fd = -1;
  FrameReader Reader;
};

/// Connects to a Unix-domain serve socket.
ErrorOr<ClientConn> connectUnix(const std::string &Path);
/// Connects to a loopback TCP serve socket.
ErrorOr<ClientConn> connectTcp(int Port);

/// Writes all of \p Data to a socket, riding out partial writes and
/// EINTR; false on error (a write timeout included).
bool writeAll(int Fd, std::string_view Data);

/// Sets the SO_RCVTIMEO or SO_SNDTIMEO (\p Option) of a socket; 0 clears
/// it.
void setSocketTimeout(int Fd, int Option, uint64_t Millis);

} // namespace serve
} // namespace irlt

#endif // IRLT_SERVE_CLIENT_H
