//===- tools/irlt-search.cpp - Transformation search driver ---------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// irlt-search: parse a loop nest, run the cost-model-guided beam search
/// (docs/SEARCH.md) over transformation sequences, and print the winner.
/// A thin client of the irlt::api facade (api/Pipeline.h, docs/API.md).
///
///   irlt-search FILE [options]
///     --objective locality|par|both   what to optimize (default: both)
///     --beam N        frontier width per depth level (default: 8)
///     --depth N       max steps per sequence, excluding the trailing
///                     Parallelize (default: 2)
///     --tiles 8,16    Block tile-size candidate set
///     --threads N     worker threads; the result is byte-identical for
///                     any N (default: 1)
///     --params n=32   cost-model parameter bindings (default: all free
///                     symbols bound to 24)
///     --topk N        candidates reported by --explain (default: 5)
///     --explain       print the top-k candidates with costs and the
///                     deterministic search statistics
///     --emit          print the transformed nest under the winner
///     --validate[=N]  guarded mode (docs/LEGALITY.md): cross-check the
///                     winning candidates by bounded concrete execution
///                     (N = per-evaluation instance budget) and degrade
///                     gracefully - a disproved candidate falls through
///                     to the next-best one, ultimately to the identity
///                     sequence; disproofs are dumped as replayable
///                     reproducers
///     --validate=native[:N]
///                     the same ladder plus the compile-and-run tier
///                     (docs/CODEGEN.md): winners are natively executed
///                     under bindings beyond any interpreted budget;
///                     without a host C compiler the interpreted verdict
///                     stands, annotated as native-skipped
///     --json          emit one versioned JSON record (the shared schema
///                     of docs/API.md) instead of text
///
/// Exit status: 0 on success (including "no candidate beat nothing" and
/// the --validate identity fallback), 1 on errors.
///
//===----------------------------------------------------------------------===//

#include "api/Pipeline.h"
#include "support/Json.h"
#include "support/Printing.h"

#include <cstdio>
#include <sstream>

using namespace irlt;

namespace {

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s FILE [--objective locality|par|both] [--beam N]\n"
               "          [--depth N] [--tiles 8,16] [--threads N]\n"
               "          [--params n=32,m=16] [--topk N] [--explain] "
               "[--emit]\n"
               "          [--validate[=N|native[:N]]] [--json]\n",
               Argv0);
}

bool parseUnsigned(const std::string &S, unsigned &Out) {
  if (S.empty())
    return false;
  unsigned long V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<unsigned long>(C - '0');
    if (V > 1'000'000)
      return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}

bool parseIntList(const std::string &S, std::vector<int64_t> &Out) {
  Out.clear();
  std::istringstream SS(S);
  std::string Item;
  while (std::getline(SS, Item, ',')) {
    if (Item.empty())
      return false;
    int64_t V = 0;
    for (char C : Item) {
      if (C < '0' || C > '9')
        return false;
      if (V > (INT64_MAX - (C - '0')) / 10)
        return false;
      V = V * 10 + (C - '0');
    }
    if (V <= 0)
      return false;
    Out.push_back(V);
  }
  return !Out.empty();
}

void printCandidate(const char *Tag, const search::ScoredSequence &C) {
  std::printf("%s: %s\n", Tag, C.Seq.str().c_str());
  std::printf("  cost: %.6f\n", C.Cost);
  if (C.MissRatio >= 0)
    std::printf("  miss-ratio: %.6f\n", C.MissRatio);
  std::printf("  par-score: %ld\n", C.ParScore);
  if (!C.ParallelLoops.empty()) {
    std::string Loops;
    for (unsigned P : C.ParallelLoops) {
      if (!Loops.empty())
        Loops += ',';
      Loops += std::to_string(P);
    }
    std::printf("  parallel-loops: %s\n", Loops.c_str());
  }
}

void writeCandidate(json::JsonWriter &W, const search::ScoredSequence &C) {
  W.beginObject();
  W.field("sequence", C.Seq.str());
  W.field("cost", C.Cost);
  W.field("miss_ratio", C.MissRatio);
  W.field("par_score", static_cast<int64_t>(C.ParScore));
  W.key("parallel_loops").beginArray();
  for (unsigned P : C.ParallelLoops)
    W.value(static_cast<uint64_t>(P));
  W.endArray();
  W.endObject();
}

int fail(bool JsonMode, const std::string &Message) {
  if (JsonMode) {
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-search");
    W.field("ok", false);
    W.key("error").beginObject();
    W.field("message", Message);
    W.endObject();
    W.endObject();
    std::printf("%s\n", W.take().c_str());
  }
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 1;
  }
  std::string NestPath = argv[1];
  search::SearchOptions Opts;
  bool Explain = false, Emit = false, Validate = false, JsonMode = false;
  ValidateSpec VSpec;

  for (int I = 2; I < argc; ++I) {
    std::string A = argv[I];
    auto nextArg = [&](const char *What) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", What);
        return nullptr;
      }
      return argv[++I];
    };
    if (A == "--objective") {
      const char *V = nextArg("--objective");
      if (!V)
        return 1;
      std::string Obj = V;
      if (Obj == "locality")
        Opts.Obj = search::Objective::Locality;
      else if (Obj == "par")
        Opts.Obj = search::Objective::Parallelism;
      else if (Obj == "both")
        Opts.Obj = search::Objective::Both;
      else {
        std::fprintf(stderr,
                     "error: --objective expects locality, par, or both\n");
        return 1;
      }
    } else if (A == "--beam") {
      const char *V = nextArg("--beam");
      if (!V || !parseUnsigned(V, Opts.Beam) || Opts.Beam == 0) {
        std::fprintf(stderr, "error: --beam expects a positive integer\n");
        return 1;
      }
    } else if (A == "--depth") {
      const char *V = nextArg("--depth");
      if (!V || !parseUnsigned(V, Opts.Depth)) {
        std::fprintf(stderr, "error: --depth expects an integer\n");
        return 1;
      }
    } else if (A == "--tiles") {
      const char *V = nextArg("--tiles");
      if (!V || !parseIntList(V, Opts.Candidates.TileSizes)) {
        std::fprintf(stderr,
                     "error: --tiles expects a comma-separated list of "
                     "positive integers\n");
        return 1;
      }
    } else if (A == "--threads") {
      const char *V = nextArg("--threads");
      if (!V || !parseUnsigned(V, Opts.Threads) || Opts.Threads == 0) {
        std::fprintf(stderr, "error: --threads expects a positive integer\n");
        return 1;
      }
    } else if (A == "--params") {
      const char *V = nextArg("--params");
      if (!V || !parseBindings(V, Opts.CostParams)) {
        std::fprintf(stderr, "error: malformed --params bindings\n");
        return 1;
      }
    } else if (A == "--topk") {
      const char *V = nextArg("--topk");
      if (!V || !parseUnsigned(V, Opts.TopK) || Opts.TopK == 0) {
        std::fprintf(stderr, "error: --topk expects a positive integer\n");
        return 1;
      }
    } else if (A == "--explain") {
      Explain = true;
    } else if (A == "--emit") {
      Emit = true;
    } else if (A == "--json") {
      JsonMode = true;
    } else if (A == "--validate" || A.rfind("--validate=", 0) == 0) {
      // --validate=native[:N]: compile-and-run tier (docs/CODEGEN.md).
      Validate = true;
      if (!parseValidateSpec(A == "--validate" ? "" : A.substr(11), VSpec)) {
        std::fprintf(stderr, "error: --validate= expects a positive instance "
                             "budget or 'native[:N]'\n");
        return 1;
      }
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A.c_str());
      usage(argv[0]);
      return 1;
    }
  }

  api::Pipeline P;

  std::string Source;
  if (!readFile(NestPath, Source)) {
    std::fprintf(stderr, "error: cannot read '%s'\n", NestPath.c_str());
    return fail(JsonMode, "cannot read '" + NestPath + "'");
  }
  ErrorOr<LoopNest> NestOr = P.loadNest(Source);
  if (!NestOr) {
    std::fprintf(stderr, "%s: %s\n", NestPath.c_str(),
                 NestOr.message().c_str());
    return fail(JsonMode, NestPath + ": " + NestOr.message());
  }
  LoopNest Nest = NestOr.take();

  search::SearchResult R = P.searchAuto(Nest, Opts);
  if (!R.Error.empty()) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return fail(JsonMode, R.Error);
  }

  json::JsonWriter W;
  json::beginToolRecord(W, "irlt-search");
  W.field("ok", true);

  if (!R.Best) {
    if (JsonMode) {
      W.nullField("winner");
      W.endObject();
      std::printf("%s\n", W.take().c_str());
    } else {
      std::printf("winner: none\n");
    }
    return 0;
  }
  if (JsonMode) {
    W.key("winner");
    writeCandidate(W, *R.Best);
    W.key("top").beginArray();
    for (const search::ScoredSequence &C : R.Top)
      writeCandidate(W, C);
    W.endArray();
    W.key("search_stats").beginObject();
    W.field("enumerated", R.Stats.Enumerated);
    W.field("pruned", R.Stats.Pruned);
    W.field("deduped", R.Stats.Deduped);
    W.field("leaves", R.Stats.Leaves);
    W.field("legal", R.Stats.Legal);
    W.field("analyzer_pruned", R.Stats.AnalyzerPruned);
    W.endObject();
  } else {
    printCandidate("winner", *R.Best);
    if (Explain) {
      std::printf("top-%zu:\n", R.Top.size());
      for (size_t I = 0; I < R.Top.size(); ++I)
        printCandidate(("  #" + std::to_string(I + 1)).c_str(), R.Top[I]);
      std::printf("stats: enumerated=%llu pruned=%llu deduped=%llu "
                  "leaves=%llu legal=%llu analyzer_pruned=%llu\n",
                  static_cast<unsigned long long>(R.Stats.Enumerated),
                  static_cast<unsigned long long>(R.Stats.Pruned),
                  static_cast<unsigned long long>(R.Stats.Deduped),
                  static_cast<unsigned long long>(R.Stats.Leaves),
                  static_cast<unsigned long long>(R.Stats.Legal),
                  static_cast<unsigned long long>(R.Stats.AnalyzerPruned));
    }
  }

  TransformSequence Final = R.Best->Seq;
  if (Validate) {
    witness::ValidateOptions VO =
        witness::ValidateOptions::forRequest(VSpec.Native, VSpec.Budget);
    std::vector<TransformSequence> Cands;
    for (const search::ScoredSequence &S : R.Top)
      Cands.push_back(S.Seq);
    if (Cands.empty())
      Cands.push_back(R.Best->Seq);
    witness::LadderResult LR = P.validate(Nest, Cands, VO);
    if (JsonMode) {
      witness::writeLadder(W, LR);
    } else {
      for (size_t I = 0; I < LR.Outcomes.size(); ++I) {
        const witness::CandidateOutcome &O = LR.Outcomes[I];
        std::printf("validate #%zu: %s - %s\n", I + 1,
                    witness::validateStatusName(O.Status), O.Detail.c_str());
        if (!O.ReproPath.empty())
          std::printf("  reproducer: %s\n", O.ReproPath.c_str());
      }
    }
    if (LR.fellBackToIdentity()) {
      Final = TransformSequence();
      if (!JsonMode)
        std::printf("validated winner: identity (every candidate was "
                    "disproved)\n");
    } else {
      Final = Cands[static_cast<size_t>(LR.Chosen)];
      if (!JsonMode)
        std::printf("validated winner: %s\n", Final.str().c_str());
    }
  }
  if (JsonMode)
    W.field("sequence", Final.str());

  if (Emit) {
    ErrorOr<LoopNest> Out = P.apply(Final, Nest);
    if (!Out) {
      std::fprintf(stderr, "apply: %s\n", Out.message().c_str());
      return fail(JsonMode, "apply: " + Out.message());
    }
    if (JsonMode)
      W.field("output", P.emit(*Out, api::EmitKind::Loop));
    else
      std::printf("%s", Out->str().c_str());
  }
  if (JsonMode) {
    W.endObject();
    std::printf("%s\n", W.take().c_str());
  }
  return 0;
}
