//===- tools/irlt-servectl.cpp - Client driver for irlt-serve -------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// irlt-servectl: the client side of the irlt-serve wire protocol
/// (docs/SERVE.md), for scripts, tests, and the CI smoke lane.
///
///   irlt-servectl (--socket PATH | --port N) [--timeout-ms N] CMD ...
///     ping [--retry N]   send {"op":"healthz"}; with --retry, retry the
///                        connect every 50 ms up to N times (startup
///                        races in scripts)
///     stats              send {"op":"statz"} and print the record
///     persist            send {"op":"persist"} and print the record
///     send FILE [--retry-overloaded[=N]]
///                        send every request line of the ndjson FILE as
///                        one frame (pipelined), then print the response
///                        records to stdout in order - the same stream
///                        irlt-batch FILE would print. With
///                        --retry-overloaded, responses rejected with a
///                        retryable kind ("overloaded", "shard_down",
///                        "draining") are retried up to N times (default
///                        8) with capped, deterministically jittered
///                        backoff; the printed stream keeps request
///                        order, so an explicit-id corpus retried
///                        against irlt-front converges to the exact
///                        bytes of an uncontended run
///     fault KIND         send one deliberately broken interaction and
///                        report how the server handled it; KIND is one
///                        of truncated-frame, lying-length,
///                        garbage-frame, oversized-frame, slow-client
///
/// Exit status: 0 success (for fault: the server answered with a
/// structured reject or closed cleanly - no hang), 2 error responses or
/// a misbehaving server (hang/timeout), 1 tool/usage errors.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "serve/Client.h"
#include "support/Json.h"
#include "support/Printing.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

using namespace irlt;
using namespace irlt::serve;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --port N) [--timeout-ms N] CMD ...\n"
      "  ping [--retry N] | stats | persist\n"
      "  send FILE [--retry-overloaded[=N]] | fault KIND\n"
      "fault kinds: truncated-frame lying-length garbage-frame "
      "oversized-frame slow-client\n"
      "exit status: 0 success, 2 error responses / server misbehavior, "
      "1 tool error\n",
      Argv0);
}

struct Target {
  std::string SocketPath;
  int Port = -1;
  uint64_t TimeoutMs = 5000;

  ErrorOr<ClientConn> connect() const {
    return SocketPath.empty() ? connectTcp(Port) : connectUnix(SocketPath);
  }
};

/// True when \p Record parses and carries "ok": true.
bool recordOk(const std::string &Record) {
  ErrorOr<json::JsonValue> Doc = json::JsonValue::parse(Record);
  return Doc && Doc->isObject() && Doc->boolOr("ok", false);
}

/// True when \p Record is a structured reject whose error kind marks a
/// transient server-side condition ("overloaded" shed, "shard_down"
/// worker crash, "draining" shutdown) rather than a verdict on the
/// request itself. Only these are safe to retry: the request was never
/// processed, so resending it cannot double-apply anything.
bool recordRetryable(const std::string &Record) {
  ErrorOr<json::JsonValue> Doc = json::JsonValue::parse(Record);
  if (!Doc || !Doc->isObject() || Doc->boolOr("ok", false))
    return false;
  const json::JsonValue *Err = Doc->find("error");
  if (!Err || !Err->isObject())
    return false;
  std::string Kind = Err->stringOr("kind", "");
  return Kind == engine::errkind::Overloaded ||
         Kind == engine::errkind::ShardDown ||
         Kind == engine::errkind::Draining;
}

/// Backoff before retry \p Attempt (1-based) of request line \p Index:
/// capped exponential plus a deterministic per-(line, attempt) jitter so
/// concurrent clients de-correlate without the tool losing replayable
/// behavior (no wall-clock or PRNG state).
uint64_t retryBackoffMillis(uint64_t Index, uint64_t Attempt) {
  uint64_t Shift = Attempt > 6 ? 6 : Attempt - 1;
  uint64_t Base = 25ull << Shift;
  if (Base > 1000)
    Base = 1000;
  uint64_t Jitter = (Index * 2654435761ull + Attempt * 40503ull) % 25;
  return Base + Jitter;
}

int runOp(const Target &T, const std::string &Op, uint64_t Retries) {
  ErrorOr<ClientConn> C = Failure(Diag::error("unconnected"));
  for (uint64_t Attempt = 0;; ++Attempt) {
    C = T.connect();
    if (C || Attempt >= Retries)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!C) {
    std::fprintf(stderr, "error: %s\n", C.message().c_str());
    return 2;
  }
  if (!C->sendFrame("{\"op\":\"" + Op + "\"}")) {
    std::fprintf(stderr, "error: send failed\n");
    return 2;
  }
  ErrorOr<std::string> Resp = C->recvFrame(T.TimeoutMs);
  if (!Resp) {
    std::fprintf(stderr, "error: %s\n", Resp.message().c_str());
    return 2;
  }
  std::fprintf(stdout, "%s\n", Resp->c_str());
  return recordOk(*Resp) ? 0 : 2;
}

/// Re-send one request line on a fresh connection, up to \p MaxRetries
/// attempts, while the response stays a retryable reject. Returns the
/// final response (the last reject when retries are exhausted), or
/// failure when the server becomes unreachable and stays so.
ErrorOr<std::string> retryLine(const Target &T, const std::string &Line,
                               uint64_t Index, uint64_t MaxRetries,
                               std::string Current) {
  for (uint64_t Attempt = 1; Attempt <= MaxRetries; ++Attempt) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(retryBackoffMillis(Index, Attempt)));
    // A fresh connection per attempt: the transient kinds all describe
    // states (shed window, dead shard, drain) that a later connection
    // may not hit, and the original pipelined connection has already
    // half-closed its write side.
    ErrorOr<ClientConn> C = T.connect();
    if (!C) {
      if (Attempt == MaxRetries)
        return Failure(Diag::error("retry connect: " + C.message()));
      continue; // server restarting; back off and try again
    }
    if (!C->sendFrame(Line)) {
      if (Attempt == MaxRetries)
        return Failure(Diag::error("retry send failed"));
      continue;
    }
    ErrorOr<std::string> Resp = C->recvFrame(T.TimeoutMs);
    if (!Resp) {
      if (Attempt == MaxRetries)
        return Failure(Diag::error("retry recv: " + Resp.message()));
      continue;
    }
    Current = *Resp;
    if (!recordRetryable(Current))
      break; // a definitive answer (ok or a non-transient error)
  }
  return Current;
}

int runSend(const Target &T, const std::string &Path, uint64_t MaxRetries) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
    return 1;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::vector<std::string> Lines = engine::splitLines(SS.str());

  ErrorOr<ClientConn> C = T.connect();
  if (!C) {
    std::fprintf(stderr, "error: %s\n", C.message().c_str());
    return 2;
  }
  std::vector<const std::string *> Reqs;
  for (const std::string &Line : Lines) {
    if (Line.empty())
      continue;
    if (!C->sendFrame(Line)) {
      std::fprintf(stderr, "error: send failed after %llu requests\n",
                   static_cast<unsigned long long>(Reqs.size()));
      return 2;
    }
    Reqs.push_back(&Line);
  }
  C->finishWrites();

  // Buffer the pipelined responses so retried lines can be patched in
  // place: the printed stream keeps request order regardless of how
  // many attempts any one line needed.
  std::vector<std::string> Resps;
  Resps.reserve(Reqs.size());
  for (uint64_t I = 0; I < Reqs.size(); ++I) {
    ErrorOr<std::string> Resp = C->recvFrame(T.TimeoutMs);
    if (!Resp) {
      std::fprintf(stderr, "error: response %llu/%llu: %s\n",
                   static_cast<unsigned long long>(I + 1),
                   static_cast<unsigned long long>(Reqs.size()),
                   Resp.message().c_str());
      return 2;
    }
    Resps.push_back(std::move(*Resp));
  }

  if (MaxRetries > 0) {
    for (uint64_t I = 0; I < Resps.size(); ++I) {
      if (!recordRetryable(Resps[I]))
        continue;
      ErrorOr<std::string> Final =
          retryLine(T, *Reqs[I], I, MaxRetries, Resps[I]);
      if (!Final) {
        std::fprintf(stderr, "error: line %llu: %s\n",
                     static_cast<unsigned long long>(I + 1),
                     Final.message().c_str());
        return 2;
      }
      Resps[I] = std::move(*Final);
    }
  }

  bool AnyError = false;
  for (const std::string &R : Resps) {
    std::fprintf(stdout, "%s\n", R.c_str());
    if (!recordOk(R))
      AnyError = true;
  }
  return AnyError ? 2 : 0;
}

int runFault(const Target &T, const std::string &Kind) {
  ErrorOr<ClientConn> C = T.connect();
  if (!C) {
    std::fprintf(stderr, "error: %s\n", C.message().c_str());
    return 2;
  }

  if (Kind == "slow-client") {
    // A valid request trickled one byte at a time: the server must
    // tolerate slow *requests* (its timeout guards writes) and answer.
    if (!C->sendFrame("{\"op\":\"healthz\"}", /*StallMillis=*/2)) {
      std::fprintf(stderr, "error: send failed\n");
      return 2;
    }
    ErrorOr<std::string> Resp = C->recvFrame(T.TimeoutMs);
    if (!Resp) {
      std::fprintf(stderr, "error: %s\n", Resp.message().c_str());
      return 2;
    }
    std::fprintf(stdout, "%s\n", Resp->c_str());
    return recordOk(*Resp) ? 0 : 2;
  }

  if (Kind == "truncated-frame") {
    // Declare 64 payload bytes, send 5, half-close.
    std::string Frame = encodeFrame(std::string(64, 'x'));
    C->sendRaw(Frame.substr(0, FrameHeaderBytes + 5));
    C->finishWrites();
  } else if (Kind == "lying-length") {
    // A bare header declaring a payload that never arrives.
    std::string Frame = encodeFrame(std::string(100, 'y'));
    C->sendRaw(Frame.substr(0, FrameHeaderBytes));
    C->finishWrites();
  } else if (Kind == "garbage-frame") {
    C->sendRaw("this is not a frame at all\n");
    C->finishWrites();
  } else if (Kind == "oversized-frame") {
    // Header declaring a 4 GiB-1 payload; the server must reject it
    // from the length field alone, before any payload is buffered.
    std::string Hdr(FrameMagic, sizeof(FrameMagic));
    for (int I = 0; I < 4; ++I)
      Hdr.push_back(static_cast<char>(0xff));
    C->sendRaw(Hdr);
    C->finishWrites();
  } else {
    std::fprintf(stderr, "error: unknown fault kind '%s'\n", Kind.c_str());
    return 1;
  }

  // The server behaved if it answers with a structured reject (printed)
  // or closes the connection; only a hang (timeout) is a failure.
  ErrorOr<std::string> Resp = C->recvFrame(T.TimeoutMs);
  if (Resp) {
    std::fprintf(stdout, "%s\n", Resp->c_str());
    return 0;
  }
  if (Resp.message().find("timed out") != std::string::npos) {
    std::fprintf(stderr, "error: server did not respond to fault '%s'\n",
                 Kind.c_str());
    return 2;
  }
  std::fprintf(stdout, "connection closed (%s)\n", Resp.message().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Target T;
  int I = 1;
  for (; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--socket") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: --socket needs an argument\n");
        return 1;
      }
      T.SocketPath = argv[++I];
    } else if (A == "--port") {
      uint64_t N = 0;
      if (I + 1 >= argc || !parseU64(argv[++I], N) || N > 65535) {
        std::fprintf(stderr, "error: --port expects 0..65535\n");
        return 1;
      }
      T.Port = static_cast<int>(N);
    } else if (A == "--timeout-ms") {
      uint64_t N = 0;
      if (I + 1 >= argc || !parseU64(argv[++I], N)) {
        std::fprintf(stderr, "error: --timeout-ms expects an integer\n");
        return 1;
      }
      T.TimeoutMs = N;
    } else if (A == "--help" || A == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      break; // the subcommand
    }
  }
  if (T.SocketPath.empty() && T.Port < 0) {
    std::fprintf(stderr, "error: need --socket PATH or --port N\n");
    usage(argv[0]);
    return 1;
  }
  if (I >= argc) {
    std::fprintf(stderr, "error: missing command\n");
    usage(argv[0]);
    return 1;
  }

  std::string Cmd = argv[I++];
  if (Cmd == "ping") {
    uint64_t Retries = 0;
    if (I < argc && std::string(argv[I]) == "--retry") {
      if (I + 1 >= argc || !parseU64(argv[I + 1], Retries)) {
        std::fprintf(stderr, "error: --retry expects an integer\n");
        return 1;
      }
      I += 2;
    }
    return runOp(T, "healthz", Retries);
  }
  if (Cmd == "stats")
    return runOp(T, "statz", 0);
  if (Cmd == "persist")
    return runOp(T, "persist", 0);
  if (Cmd == "send") {
    std::string File;
    uint64_t MaxRetries = 0;
    for (; I < argc; ++I) {
      std::string A = argv[I];
      if (A == "--retry-overloaded") {
        MaxRetries = 8;
      } else if (A.rfind("--retry-overloaded=", 0) == 0) {
        if (!parseU64(A.substr(19), MaxRetries)) {
          std::fprintf(stderr,
                       "error: --retry-overloaded expects an integer\n");
          return 1;
        }
      } else if (File.empty()) {
        File = A;
      } else {
        std::fprintf(stderr, "error: unexpected argument '%s'\n", A.c_str());
        return 1;
      }
    }
    if (File.empty()) {
      std::fprintf(stderr, "error: send needs a FILE\n");
      return 1;
    }
    return runSend(T, File, MaxRetries);
  }
  if (Cmd == "fault") {
    if (I >= argc) {
      std::fprintf(stderr, "error: fault needs a KIND\n");
      return 1;
    }
    return runFault(T, argv[I]);
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", Cmd.c_str());
  usage(argv[0]);
  return 1;
}
