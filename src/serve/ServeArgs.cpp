//===- serve/ServeArgs.cpp - irlt-serve's command line -------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser and the one renderer of irlt-serve's flags. irlt-serve
/// and irlt-front both parse with parseServeArgs(), and irlt-front hands
/// each worker a renderServeArgs() command line, so a flag lands once.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace irlt;
using namespace irlt::serve;

namespace {

/// `--fault list` / IRLT_FAULT=list: the supported kinds, one per line.
int printFaultKinds() {
  for (const std::string &N : faultKindNames())
    std::fprintf(stdout, "%s\n", N.c_str());
  return 0;
}

} // namespace

std::optional<int> serve::parseServeArgs(int Argc, char **Argv,
                                         ServeOptions &O,
                                         void (*Usage)(const char *),
                                         const ExtraFlags &Extra) {
  const char *FaultEnv = std::getenv("IRLT_FAULT");
  if (FaultEnv && std::strcmp(FaultEnv, "list") == 0)
    return printFaultKinds();
  std::string FaultErr;
  O.Faults = faultsFromEnv(&FaultErr);
  if (!FaultErr.empty()) {
    std::fprintf(stderr, "error: IRLT_FAULT: %s\n", FaultErr.c_str());
    return 1;
  }

  bool JournalCapSet = false;
  for (ArgCursor C(Argc, Argv); C.next();) {
    const std::string &A = C.arg();
    bool Ok = true;
    if (A == "--socket") {
      Ok = C.value(O.SocketPath);
    } else if (A == "--port") {
      Ok = C.number(O.TcpPort, 0, 65535);
    } else if (A == "--jobs") {
      Ok = C.number(O.Jobs, 1, 1024);
    } else if (A == "--no-cache") {
      O.EnableCache = false;
    } else if (A == "--cache-cap") {
      Ok = C.number(O.CacheCapacity);
    } else if (A == "--queue-cap") {
      Ok = C.number(O.QueueCapacity, 1);
    } else if (A == "--max-conns") {
      Ok = C.number(O.MaxConns, 1);
    } else if (A == "--deadline-ms") {
      Ok = C.number(O.DefaultDeadlineMillis);
    } else if (A == "--persist") {
      Ok = C.value(O.PersistPath);
    } else if (A == "--journal-cap") {
      Ok = JournalCapSet = C.number(O.JournalCapacity);
    } else if (A == "--write-timeout-ms") {
      Ok = C.number(O.WriteTimeoutMillis);
    } else if (A == "--max-frame-bytes") {
      Ok = C.number(O.MaxFrameBytes, 1);
    } else if (A == "--fault") {
      std::string Spec;
      if (!C.value(Spec))
        return 1;
      if (Spec == "list")
        return printFaultKinds();
      ErrorOr<FaultConfig> FC = parseFaultSpec(Spec);
      if (!FC) {
        std::fprintf(stderr, "error: --fault: %s\n", FC.message().c_str());
        return 1;
      }
      O.Faults = *FC;
    } else if (A == "--help" || A == "-h") {
      Usage(Argv[0]);
      return 0;
    } else if (std::optional<bool> Took = Extra ? Extra(C) : std::nullopt) {
      Ok = *Took;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      Usage(Argv[0]);
      return 1;
    }
    if (!Ok)
      return 1;
  }
  if (!JournalCapSet)
    O.JournalCapacity = O.CacheCapacity;
  return std::nullopt;
}

std::vector<std::string> serve::renderServeArgs(const ServeOptions &O) {
  std::vector<std::string> A;
  auto flag = [&](const char *Name, std::string Value) {
    A.push_back(Name);
    A.push_back(std::move(Value));
  };
  if (!O.SocketPath.empty())
    flag("--socket", O.SocketPath);
  if (O.TcpPort >= 0)
    flag("--port", std::to_string(O.TcpPort));
  flag("--jobs", std::to_string(O.Jobs));
  if (!O.EnableCache)
    A.push_back("--no-cache");
  flag("--cache-cap", std::to_string(O.CacheCapacity));
  flag("--queue-cap", std::to_string(O.QueueCapacity));
  flag("--max-conns", std::to_string(O.MaxConns));
  flag("--deadline-ms", std::to_string(O.DefaultDeadlineMillis));
  if (!O.PersistPath.empty())
    flag("--persist", O.PersistPath);
  flag("--journal-cap", std::to_string(O.JournalCapacity));
  flag("--write-timeout-ms", std::to_string(O.WriteTimeoutMillis));
  flag("--max-frame-bytes", std::to_string(O.MaxFrameBytes));
  if (O.Faults.any())
    flag("--fault", renderFaultSpec(O.Faults));
  return A;
}
