//===- tests/serve/ServeArgsTest.cpp - irlt-serve's command line ----------===//
//
// parseServeArgs() and renderServeArgs() are the one parser and the one
// renderer of irlt-serve's flags: irlt-front hands every worker a
// rendered command line, so each rendering must parse back to the very
// options it came from.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

using namespace irlt;
using namespace irlt::serve;

namespace {

/// Parses \p Args as irlt-serve's command line; nothing when the tool
/// would stop instead of serving.
std::optional<ServeOptions> parse(std::vector<std::string> Args) {
  Args.insert(Args.begin(), "irlt-serve");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  ServeOptions O;
  if (parseServeArgs(static_cast<int>(Argv.size()), Argv.data(), O,
                     [](const char *) {}))
    return std::nullopt;
  return O;
}

} // namespace

TEST(ServeArgs, RenderedOptionsParseBackFieldForField) {
  std::vector<ServeOptions> Cases(6);
  Cases[0].SocketPath = "/tmp/a.sock"; // defaults; journal cap 0
  Cases[1].TcpPort = 0;                // port mode, kernel-assigned
  Cases[1].EnableCache = false;
  Cases[2].TcpPort = 8080;
  Cases[2].CacheCapacity = 5; // a zero journal cap under a cache cap
  Cases[3].SocketPath = "s";
  Cases[3].Jobs = 7;
  Cases[3].CacheCapacity = 3;
  Cases[3].QueueCapacity = 9;
  Cases[3].MaxConns = 2;
  Cases[3].DefaultDeadlineMillis = 250;
  Cases[3].MaxFrameBytes = 4096;
  Cases[3].WriteTimeoutMillis = 0;
  Cases[3].PersistPath = "/tmp/j";
  Cases[3].JournalCapacity = 11;
  Cases[4].SocketPath = "s";
  Cases[4].Faults.WorkerKill = true;
  Cases[4].Faults.ShortRead = true;
  Cases[5].SocketPath = "s";
  Cases[5].Faults = *parseFaultSpec(join(faultKindNames(), ","));
  for (size_t I = 0; I < Cases.size(); ++I) {
    std::optional<ServeOptions> Back = parse(renderServeArgs(Cases[I]));
    ASSERT_TRUE(Back.has_value()) << "case " << I;
    EXPECT_TRUE(*Back == Cases[I])
        << "case " << I << ": " << join(renderServeArgs(Cases[I]), " ")
        << " parsed back as " << join(renderServeArgs(*Back), " ");
  }
}

TEST(ServeArgs, JournalCapDefaultsToCacheCap) {
  std::optional<ServeOptions> O = parse({"--cache-cap", "9"});
  ASSERT_TRUE(O.has_value());
  EXPECT_EQ(O->JournalCapacity, 9u);
  O = parse({"--cache-cap", "9", "--journal-cap", "0"});
  ASSERT_TRUE(O.has_value());
  EXPECT_EQ(O->JournalCapacity, 0u) << "0 means unbounded, not the default";
}
