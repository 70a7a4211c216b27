//===- serve/Listener.cpp - The connection layer of serve and front ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "serve/Listener.h"

#include "engine/Engine.h"
#include "serve/Client.h"

#include <cerrno>
#include <cstring>
#include <map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace irlt;
using namespace irlt::serve;

struct serve::Conn {
  int Fd = -1;
  /// Next sequence number to assign (reader thread only).
  uint64_t NextSeq = 0;

  /// Reorder buffer: responses are written strictly in request order.
  std::mutex WriteMu;
  std::map<uint64_t, std::string> Pending;
  uint64_t NextWrite = 0;
  bool Dead = false;

  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

Listener::Listener(ListenerOptions O, ListenerStats &Stats,
                   DispatchFn Dispatch)
    : Opts(std::move(O)), Tool("irlt-" + Opts.Name), Stats(Stats),
      Dispatch(std::move(Dispatch)) {}

Listener::~Listener() {
  if (PipeR >= 0)
    ::close(PipeR);
  if (PipeW >= 0)
    ::close(PipeW);
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (!Opts.SocketPath.empty())
    ::unlink(Opts.SocketPath.c_str());
}

//===----------------------------------------------------------------------===//
// Socket setup
//===----------------------------------------------------------------------===//

ErrorOr<bool> Listener::open() {
  auto failure = [&](const std::string &Message) {
    return Failure(Diag::error(Opts.Name + ": " + Message));
  };
  if (!Opts.SocketPath.empty() && Opts.TcpPort >= 0)
    return failure("--socket and --port are exclusive");
  if (Opts.SocketPath.empty() && Opts.TcpPort < 0)
    return failure("need --socket PATH or --port N");

  if (!Opts.SocketPath.empty()) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Opts.SocketPath.size() >= sizeof(Addr.sun_path))
      return failure("socket path too long: '" + Opts.SocketPath + "'");
    std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
                Opts.SocketPath.size() + 1);
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (ListenFd < 0)
      return failure("socket(AF_UNIX) failed");
    ::unlink(Opts.SocketPath.c_str()); // stale socket from a crashed run
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0)
      return failure("cannot bind '" + Opts.SocketPath +
                     "': " + std::strerror(errno));
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (ListenFd < 0)
      return failure("socket(AF_INET) failed");
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(static_cast<uint16_t>(Opts.TcpPort));
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0)
      return failure("cannot bind 127.0.0.1:" + std::to_string(Opts.TcpPort) +
                     ": " + std::strerror(errno));
    sockaddr_in Bound{};
    socklen_t Len = sizeof(Bound);
    if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound), &Len) ==
        0)
      BoundPort = ntohs(Bound.sin_port);
  }

  if (::listen(ListenFd, 64) < 0)
    return failure(std::string("listen failed: ") + std::strerror(errno));

  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0)
    return failure("pipe() failed");
  PipeR = Pipe[0];
  PipeW = Pipe[1];
  return true;
}

void Listener::start() {
  AcceptThread = std::thread([this] { acceptLoop(); });
}

//===----------------------------------------------------------------------===//
// Response delivery (per-connection completed-prefix reorder buffer)
//===----------------------------------------------------------------------===//

void Listener::deliver(const ConnPtr &C, uint64_t Seq,
                       const std::string &Record) {
  std::lock_guard<std::mutex> Lock(C->WriteMu);
  C->Pending.emplace(Seq, Record);
  while (!C->Pending.empty() && C->Pending.begin()->first == C->NextWrite) {
    if (!C->Dead) {
      if (!writeAll(C->Fd, encodeFrame(C->Pending.begin()->second))) {
        C->Dead = true;
        ++Stats.WriteFailures;
      }
    }
    C->Pending.erase(C->Pending.begin());
    ++C->NextWrite;
  }
}

//===----------------------------------------------------------------------===//
// Reader thread: socket -> FrameReader -> dispatch
//===----------------------------------------------------------------------===//

void Listener::rejectFrame(const ConnPtr &C, const std::string &Message) {
  ++Stats.BadFrames;
  deliver(C, C->NextSeq++,
          engine::makeErrorRecord(Tool, "-", engine::errkind::BadFrame,
                                  Message));
}

void Listener::readLoop(const ConnPtr &C) {
  FrameReader FR(Opts.MaxFrameBytes);
  char Buf[4096];
  // The short-read fault degrades the transport to one byte per read;
  // the frame parser must produce identical results (it is a pure
  // incremental state machine), which the fault-matrix test pins.
  size_t ReadLen = Opts.ShortRead ? 1 : sizeof(Buf);

  for (;;) {
    ssize_t N = ::read(C->Fd, Buf, ReadLen);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break; // connection error: drop
    }
    if (N == 0) {
      // EOF. Mid-frame, that is the "truncated frame" case: report it
      // on the (possibly still open) write side, then close.
      if (FR.midFrame())
        rejectFrame(C, "truncated frame: connection closed with " +
                           std::to_string(FR.bufferedBytes()) +
                           " bytes of an incomplete frame");
      break;
    }
    FR.feed(Buf, static_cast<size_t>(N));
    std::string Payload;
    FrameReader::Status S;
    while ((S = FR.next(Payload)) == FrameReader::Status::Frame) {
      ++Stats.FramesIn;
      uint64_t Seq = C->NextSeq++;
      Dispatch(C, Seq, std::move(Payload));
      Payload.clear();
    }
    if (S == FrameReader::Status::Error) {
      // The byte stream cannot be resynchronized after a framing
      // error: one structured reject, then close.
      rejectFrame(C, std::string("framing error: ") +
                         FrameReader::errorName(FR.error()));
      break;
    }
  }

  std::lock_guard<std::mutex> Lock(ConnMu);
  LiveFds.erase(C->Fd);
}

//===----------------------------------------------------------------------===//
// Accept loop + drain
//===----------------------------------------------------------------------===//

void Listener::acceptLoop() {
  for (;;) {
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {PipeR, POLLIN, 0}};
    if (::poll(Fds, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Fds[1].revents) {
      Draining.store(true);
      break;
    }
    if (!(Fds[0].revents & POLLIN))
      continue;

    int Fd = ::accept4(ListenFd, nullptr, nullptr, SOCK_CLOEXEC);
    if (Fd < 0)
      continue;

    // Reap finished readers so MaxConns gates *live* connections.
    for (size_t I = 0; I < Readers.size();) {
      if (Readers[I]->Done.load()) {
        Readers[I]->T.join();
        Readers.erase(Readers.begin() + static_cast<ptrdiff_t>(I));
      } else {
        ++I;
      }
    }

    setSocketTimeout(Fd, SO_SNDTIMEO, Opts.WriteTimeoutMillis);

    if (Readers.size() >= Opts.MaxConns) {
      ++Stats.ConnsRejected;
      writeAll(Fd, encodeFrame(engine::makeErrorRecord(
                       Tool, "-", engine::errkind::Overloaded,
                       "connection limit reached (" +
                           std::to_string(Opts.MaxConns) + ")")));
      ::close(Fd);
      continue;
    }

    ++Stats.ConnsAccepted;
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      LiveFds.insert(Fd);
    }
    auto Slot = std::make_unique<ReaderSlot>();
    ReaderSlot *Raw = Slot.get();
    Raw->T = std::thread([this, C, Raw] {
      readLoop(C);
      Raw->Done.store(true);
    });
    Readers.push_back(std::move(Slot));
  }

  ::close(ListenFd);
  ListenFd = -1;
}

void Listener::requestDrain() {
  // write() is async-signal-safe; this is the whole point of the pipe.
  if (PipeW >= 0) {
    char B = 1;
    [[maybe_unused]] ssize_t N = ::write(PipeW, &B, 1);
  }
}

void Listener::drain() {
  AcceptThread.join();

  // Wake every blocked reader; buffered complete frames still dispatch
  // (the owner answers them with its "draining" rejects), then readers
  // exit.
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (int Fd : LiveFds)
      ::shutdown(Fd, SHUT_RD);
  }
  for (auto &Slot : Readers)
    Slot->T.join();
  Readers.clear();
}
