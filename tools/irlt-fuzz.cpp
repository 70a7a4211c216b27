//===- tools/irlt-fuzz.cpp - Differential fuzzer for the IRLT pipeline ----===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// irlt-fuzz: seeded differential fuzzing of the transformation
/// pipeline. Generates random loop nests and transformation scripts,
/// cross-checks the uniform legality test against the type-state fast
/// path, verifies accepted sequences by concrete execution under several
/// parameter bindings, and checks that reduced() sequences stay
/// equivalent. Failures are shrunk and dumped as replayable reproducers.
///
///   irlt-fuzz [options]
///     --cases N            number of cases (default 100)
///     --seed S             run seed (default 1); (seed, index) fully
///                          determines every case
///     --shrink / --no-shrink
///                          minimize failing cases (default on)
///     --repro-dir DIR      where reproducers go (default irlt-fuzz-repro)
///     --max-depth N        deepest generated nest (default 3, max 4)
///     --max-steps N        longest generated script (default 4)
///     --max-instances N    per-evaluation instance budget (default 200000)
///     --time-budget-ms N   per-evaluation wall budget (default 0 = off,
///                          keeping runs fully deterministic)
///     --search             search mode: run the beam search on each
///                          generated nest and check that every reported
///                          candidate passes full legality and execution
///                          verification, thread-count-invariantly
///     --deps               dependence-oracle mode (docs/DEPENDENCE.md):
///                          diff the production dependence analyzer
///                          against the first-principles fm-exact
///                          backend on each generated nest; pipeline
///                          under-reporting is a dumped soundness
///                          failure, over-reporting is aggregated as
///                          precision statistics
///     --wire               wire mode: fuzz the irlt-serve framing
///                          parser (serve/Frame.h) instead - round-trip
///                          under arbitrary chunking, deterministic
///                          rejection of truncated/lying/garbage frames,
///                          bounded buffering (docs/SERVE.md)
///     --native             native mode (docs/CODEGEN.md): every Legal
///                          case is additionally compiled with the host
///                          C compiler and executed, and the native
///                          checksums must match the interpreter's on
///                          identically seeded arrays; without a host
///                          compiler the run degrades to the classic
///                          oracle with a clearly marked SKIPPED line
///     --verbose            per-case category lines
///     --json               emit one versioned JSON record (the shared
///                          schema of docs/API.md) instead of text
///
/// SIGINT/SIGTERM interrupt cooperatively: the in-flight case finishes
/// (reproducer dumps are never torn), the stats cover the completed
/// prefix, and the exit status is 3.
///
/// Exit status: 0 when no oracle failures, 1 otherwise, 3 when
/// interrupted, 2 on bad usage.
///
/// A thin client of the irlt::api facade (api/Pipeline.h, docs/API.md).
///
//===----------------------------------------------------------------------===//

#include "api/Pipeline.h"
#include "serve/WireFuzz.h"
#include "support/Json.h"
#include "support/Printing.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

using namespace irlt;
using namespace irlt::fuzz;

namespace {

/// Set by the SIGINT/SIGTERM handler; the fuzz loop polls it between
/// cases, so reproducer dumps are never torn.
std::atomic<bool> GStop{false};

void onSignal(int) { GStop.store(true); }

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--cases N] [--seed S] [--shrink|--no-shrink]\n"
               "          [--repro-dir DIR] [--max-depth N] [--max-steps N]\n"
               "          [--max-instances N] [--time-budget-ms N]"
               " [--search] [--deps] [--wire] [--native] [--verbose]"
               " [--json]\n",
               Argv0);
}

} // namespace

int main(int argc, char **argv) {
  FuzzOptions Opts;
  bool JsonMode = false;
  bool WireMode = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto nextArg = [&](const char *What) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", What);
        return nullptr;
      }
      return argv[++I];
    };
    auto nextU64 = [&](const char *What, uint64_t &Out) {
      const char *V = nextArg(What);
      if (!V)
        return false;
      if (!parseU64(V, Out)) {
        std::fprintf(stderr, "error: %s expects a non-negative integer, got "
                             "'%s'\n",
                     What, V);
        return false;
      }
      return true;
    };

    uint64_t U;
    if (A == "--cases") {
      if (!nextU64("--cases", Opts.Cases))
        return 2;
    } else if (A == "--seed") {
      if (!nextU64("--seed", Opts.Seed))
        return 2;
    } else if (A == "--shrink") {
      Opts.Shrink = true;
    } else if (A == "--no-shrink") {
      Opts.Shrink = false;
    } else if (A == "--repro-dir") {
      const char *V = nextArg("--repro-dir");
      if (!V)
        return 2;
      Opts.ReproDir = V;
    } else if (A == "--max-depth") {
      if (!nextU64("--max-depth", U) || U < 1 || U > 4) {
        std::fprintf(stderr, "error: --max-depth expects 1..4\n");
        return 2;
      }
      Opts.MaxDepth = static_cast<unsigned>(U);
    } else if (A == "--max-steps") {
      if (!nextU64("--max-steps", U) || U < 1 || U > 16) {
        std::fprintf(stderr, "error: --max-steps expects 1..16\n");
        return 2;
      }
      Opts.MaxSteps = static_cast<unsigned>(U);
    } else if (A == "--max-instances") {
      if (!nextU64("--max-instances", Opts.MaxInstances) ||
          !Opts.MaxInstances) {
        std::fprintf(stderr, "error: --max-instances expects a positive "
                             "integer\n");
        return 2;
      }
    } else if (A == "--time-budget-ms") {
      if (!nextU64("--time-budget-ms", Opts.TimeBudgetMillis))
        return 2;
    } else if (A == "--search") {
      Opts.SearchMode = true;
    } else if (A == "--deps") {
      Opts.DepsMode = true;
    } else if (A == "--wire") {
      WireMode = true;
    } else if (A == "--native") {
      Opts.NativeMode = true;
    } else if (A == "--verbose" || A == "-v") {
      Opts.Verbose = true;
    } else if (A == "--json") {
      JsonMode = true;
    } else if (A == "--help" || A == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  Opts.StopFlag = &GStop;

  if (WireMode) {
    serve::WireFuzzOptions WO;
    WO.Seed = Opts.Seed;
    WO.Cases = Opts.Cases;
    serve::WireFuzzStats WS = serve::runWireFuzz(WO);
    if (JsonMode) {
      json::JsonWriter W;
      json::beginToolRecord(W, "irlt-fuzz");
      W.field("mode", "wire");
      W.field("ok", WS.Failures == 0);
      W.field("cases", WS.Cases);
      W.field("seed", WO.Seed);
      W.field("clean_streams", WS.CleanStreams);
      W.field("mutated_streams", WS.MutatedStreams);
      W.field("frames_parsed", WS.FramesParsed);
      W.field("rejects", WS.Rejects);
      W.field("failures", WS.Failures);
      if (WS.Failures)
        W.field("first_failure", WS.FirstFailure);
      W.endObject();
      std::printf("%s\n", W.take().c_str());
    } else {
      std::printf("irlt-fuzz --wire: %llu cases, seed %llu\n"
                  "  clean streams    %llu\n"
                  "  mutated streams  %llu\n"
                  "  frames parsed    %llu\n"
                  "  rejects          %llu\n"
                  "  failures         %llu\n",
                  static_cast<unsigned long long>(WS.Cases),
                  static_cast<unsigned long long>(WO.Seed),
                  static_cast<unsigned long long>(WS.CleanStreams),
                  static_cast<unsigned long long>(WS.MutatedStreams),
                  static_cast<unsigned long long>(WS.FramesParsed),
                  static_cast<unsigned long long>(WS.Rejects),
                  static_cast<unsigned long long>(WS.Failures));
      if (WS.Failures)
        std::printf("FAILURE (case seed %llu): %s\n",
                    static_cast<unsigned long long>(WS.FirstFailureSeed),
                    WS.FirstFailure.c_str());
    }
    return WS.Failures ? 1 : 0;
  }

  FuzzStats Stats = api::runFuzzer(Opts);

  static const Category Order[] = {
      Category::Legal,          Category::Illegal,
      Category::RejectedPrecondition, Category::OverflowRejected,
      Category::ParseRejected,  Category::SourceSkipped,
      Category::BudgetExceeded, Category::FastPathUnsound,
      Category::OracleFailure,
  };

  if (JsonMode) {
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-fuzz");
    W.field("ok", Stats.Failures.empty());
    W.field("cases", Stats.total());
    W.field("seed", Opts.Seed);
    W.field("interrupted", Stats.Interrupted);
    if (Opts.NativeMode) {
      W.field("native_unavailable", Stats.NativeUnavailable);
      W.field("native_checked", Stats.NativeChecked);
      W.field("native_skipped", Stats.NativeSkipped);
    }
    if (Opts.DepsMode) {
      W.field("deps_precision_gaps", Stats.DepsPrecisionGaps);
      W.field("deps_extra_vectors", Stats.DepsExtraVectors);
    }
    W.key("categories").beginObject();
    for (Category C : Order)
      W.field(categoryName(C), Stats.Count[static_cast<unsigned>(C)]);
    W.endObject();
    W.field("failures", static_cast<uint64_t>(Stats.Failures.size()));
    if (!Stats.Failures.empty())
      W.field("repro_dir", Opts.ReproDir);
    W.endObject();
    std::printf("%s\n", W.take().c_str());
    if (Stats.Interrupted)
      return 3;
    return Stats.Failures.empty() ? 0 : 1;
  }

  std::printf("irlt-fuzz: %llu cases, seed %llu\n",
              static_cast<unsigned long long>(Stats.total()),
              static_cast<unsigned long long>(Opts.Seed));
  for (Category C : Order)
    std::printf("  %-26s %llu\n", categoryName(C),
                static_cast<unsigned long long>(
                    Stats.Count[static_cast<unsigned>(C)]));

  if (Opts.DepsMode)
    std::printf("dependence oracle: %llu case(s) with a precision gap "
                "(%llu pipeline vector(s) beyond the exact set); "
                "under-reporting would appear above as %s\n",
                static_cast<unsigned long long>(Stats.DepsPrecisionGaps),
                static_cast<unsigned long long>(Stats.DepsExtraVectors),
                categoryName(Category::FastPathUnsound));

  if (Opts.NativeMode) {
    if (Stats.NativeUnavailable)
      std::printf("native oracle SKIPPED: no host C compiler (set IRLT_CC "
                  "or install cc/gcc/clang); interpreted oracle only\n");
    else
      std::printf("native oracle: %llu case(s) compiled+run, %llu "
                  "skipped (unemittable or over budget)\n",
                  static_cast<unsigned long long>(Stats.NativeChecked),
                  static_cast<unsigned long long>(Stats.NativeSkipped));
  }

  if (Stats.Interrupted)
    std::printf("interrupted after %llu case(s); counts cover the completed "
                "prefix\n",
                static_cast<unsigned long long>(Stats.total()));

  if (!Stats.Failures.empty()) {
    std::printf("%zu failure(s); reproducers in %s\n",
                Stats.Failures.size(), Opts.ReproDir.c_str());
    return Stats.Interrupted ? 3 : 1;
  }
  return Stats.Interrupted ? 3 : 0;
}
