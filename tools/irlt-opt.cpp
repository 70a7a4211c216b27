//===- tools/irlt-opt.cpp - The IRLT command-line driver ------------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// irlt-opt: parse a loop nest, optionally apply a transformation script,
/// and report dependences, legality, transformed code, LB/UB/STEP
/// matrices, or emitted C. A thin client of the irlt::api facade
/// (api/Pipeline.h, docs/API.md).
///
///   irlt-opt FILE [options]
///     -s, --script TEXT     transformation script (see driver/Script.h)
///     -f, --script-file F   read the script from a file
///     --deps                print the dependence-vector set
///     --matrices            print the LB/UB/STEP matrices (Figure 5)
///     --legality            run the uniform legality test and explain
///     --fast-legality       same, via the type-state fast path
///     --emit {loop|c}       print transformed code (default: loop)
///     --emit-c              print the full differential C harness
///                           (original + transformed kernels, seeded
///                           arrays, checksum main; docs/CODEGEN.md) -
///                           bindings from --verify, default n=16,m=12,b=4
///     --verify BINDINGS     execute original and transformed nests with
///                           comma-separated bindings (n=32,b=4) and
///                           check equivalence
///     --analyze             run the static diagnostic engine over the
///                           sequence (docs/ANALYSIS.md): error findings
///                           explain the exact legality rejection,
///                           warnings lint legal-but-wasteful scripts
///     --reduce              reduce() the sequence before use
///     --auto OBJ            pick the sequence with the search engine
///                           (locality|par|both; see docs/SEARCH.md)
///     --witness             with --legality: print the machine-checkable
///                           certificate for the verdict (per-stage rule
///                           trace, or a concrete violating iteration
///                           pair) and self-check it (docs/LEGALITY.md)
///     --validate[=N]        with --auto: cross-check the winning
///                           candidates by bounded concrete execution
///                           (N = instance budget) and degrade gracefully
///                           to the next-best candidate, ultimately to
///                           the identity sequence
///     --validate=native[:N] same ladder plus the compile-and-run tier:
///                           winners are natively executed under bindings
///                           whose iteration spaces exceed any interpreted
///                           budget (docs/CODEGEN.md); without a host C
///                           compiler the interpreted verdict stands,
///                           annotated as native-skipped
///     --deps-diff           run the production dependence analyzer and
///                           the first-principles fm-exact backend side
///                           by side and cross-check them
///                           (docs/DEPENDENCE.md); a soundness
///                           divergence (pipeline under-reporting) exits 2
///     --export-scop         print the nest in the OpenScop-style
///                           exchange dialect (docs/DEPENDENCE.md) and
///                           stop
///     --import-scop         treat FILE as scop text: import it into a
///                           loop nest first (all other flags then apply
///                           to the imported nest)
///     --json                emit one versioned JSON record (the shared
///                           schema of docs/API.md) instead of text
///
/// Exit status: 0 on success (legal when --legality is given), 2 when the
/// sequence is illegal (or --deps-diff finds a soundness divergence), 1 on
/// tool/usage errors. The --validate identity fallback is success, not an
/// error. --json preserves the contract.
///
//===----------------------------------------------------------------------===//

#include "api/Pipeline.h"
#include "cgen/Cgen.h"
#include "deps/CrossCheck.h"
#include "deps/ScopIO.h"
#include "support/Json.h"
#include "support/Printing.h"

#include <cstdio>

using namespace irlt;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s FILE [-s SCRIPT | -f SCRIPTFILE | --auto locality|par|both]\n"
      "          [--deps] [--matrices] [--legality] [--fast-legality]\n"
      "          [--analyze] [--emit loop|c] [--emit-c] [--verify n=32,b=4]\n"
      "          [--reduce] [--witness] [--validate[=N|native[:N]]]\n"
      "          [--deps-diff] [--export-scop] [--import-scop] [--json]\n"
      "exit status: 0 success/legal, 2 illegal sequence, 1 error\n",
      Argv0);
}

/// JSON-mode failure record; text mode already wrote to stderr.
int fail(bool JsonMode, const std::string &Message) {
  if (JsonMode) {
    json::JsonWriter W;
    json::beginToolRecord(W, "irlt-opt");
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
  std::string Script;
  bool WantDeps = false, WantMatrices = false, WantLegality = false;
  bool WantAnalyze = false;
  bool WantFastLegality = false, WantReduce = false, WantWitness = false;
  bool Validate = false, JsonMode = false;
  bool EmitProgram = false;
  bool DepsDiff = false, ExportScop = false, ImportScop = false;
  ValidateSpec VSpec;
  std::string Emit;
  std::string VerifySpec;
  std::string Auto;

  for (int I = 2; I < argc; ++I) {
    std::string A = argv[I];
    auto nextArg = [&](const char *What) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", What);
        return nullptr;
      }
      return argv[++I];
    };
    if (A == "-s" || A == "--script") {
      const char *V = nextArg("--script");
      if (!V)
        return 1;
      Script = V;
    } else if (A == "-f" || A == "--script-file") {
      const char *V = nextArg("--script-file");
      if (!V)
        return 1;
      if (!readFile(V, Script)) {
        std::fprintf(stderr, "error: cannot read script file '%s'\n", V);
        return 1;
      }
    } else if (A == "--deps") {
      WantDeps = true;
    } else if (A == "--deps-diff") {
      DepsDiff = true;
    } else if (A == "--export-scop") {
      ExportScop = true;
    } else if (A == "--import-scop") {
      ImportScop = true;
    } else if (A == "--matrices") {
      WantMatrices = true;
    } else if (A == "--legality") {
      WantLegality = true;
    } else if (A == "--fast-legality") {
      WantFastLegality = true;
    } else if (A == "--analyze") {
      WantAnalyze = true;
    } else if (A == "--reduce") {
      WantReduce = true;
    } else if (A == "--witness") {
      WantWitness = true;
    } else if (A == "--json") {
      JsonMode = true;
    } else if (A == "--validate" || A.rfind("--validate=", 0) == 0) {
      // --validate=native[:N]: the compile-and-run tier on top of the
      // interpreted ladder (docs/CODEGEN.md); N overrides the tier's
      // interpreted budget.
      Validate = true;
      if (!parseValidateSpec(A == "--validate" ? "" : A.substr(11), VSpec)) {
        std::fprintf(stderr, "error: --validate= expects a positive instance "
                             "budget or 'native[:N]'\n");
        return 1;
      }
    } else if (A == "--emit-c") {
      EmitProgram = true;
    } else if (A == "--emit") {
      const char *V = nextArg("--emit");
      if (!V)
        return 1;
      Emit = V;
      if (Emit != "loop" && Emit != "c") {
        std::fprintf(stderr, "error: --emit expects 'loop' or 'c'\n");
        return 1;
      }
    } else if (A == "--verify") {
      const char *V = nextArg("--verify");
      if (!V)
        return 1;
      VerifySpec = V;
    } else if (A == "--auto") {
      const char *V = nextArg("--auto");
      if (!V)
        return 1;
      Auto = V;
      if (Auto != "locality" && Auto != "par" && Auto != "both") {
        std::fprintf(stderr,
                     "error: --auto expects locality, par, or both\n");
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
  // --import-scop: FILE carries the exchange dialect; everything
  // downstream sees the reconstructed loop nest.
  ErrorOr<LoopNest> NestOr =
      ImportScop ? deps::importScop(Source) : P.loadNest(Source);
  if (!NestOr) {
    std::fprintf(stderr, "%s: %s\n", NestPath.c_str(),
                 NestOr.message().c_str());
    return fail(JsonMode, NestPath + ": " + NestOr.message());
  }
  LoopNest Nest = NestOr.take();

  if (ExportScop) {
    ErrorOr<std::string> Scop = deps::exportScop(Nest);
    if (!Scop) {
      std::fprintf(stderr, "export-scop: %s\n", Scop.message().c_str());
      return fail(JsonMode, "export-scop: " + Scop.message());
    }
    if (JsonMode) {
      json::JsonWriter WS;
      json::beginToolRecord(WS, "irlt-opt");
      WS.field("ok", true);
      WS.field("mode", "export-scop");
      WS.field("scop", *Scop);
      WS.endObject();
      std::printf("%s\n", WS.take().c_str());
    } else {
      std::printf("%s", Scop->c_str());
    }
    return 0;
  }

  if (DepsDiff) {
    deps::DepResult Fast = deps::pipelineOracle().analyze(Nest);
    deps::DepResult Exact = deps::fmExactOracle().analyze(Nest);
    deps::CrossCheckResult CC = deps::crossCheckDeps(Fast, Exact);
    if (JsonMode) {
      json::JsonWriter WS;
      json::beginToolRecord(WS, "irlt-opt");
      WS.field("ok", CC.sound());
      WS.field("mode", "deps-diff");
      WS.field("pipeline", Fast.Deps.str());
      WS.field("fm_exact", Exact.Deps.str());
      WS.field("verdict", CC.str());
      WS.field("sound", CC.sound());
      WS.endObject();
      std::printf("%s\n", WS.take().c_str());
    } else {
      std::printf("pipeline:  %s\nfm-exact:  %s\nverdict:   %s\n",
                  Fast.Deps.str().c_str(), Exact.Deps.str().c_str(),
                  CC.str().c_str());
    }
    return CC.sound() ? 0 : 2;
  }

  // JSON mode buffers one record and prints it once every stage ran;
  // text mode prints as it goes, exactly as before.
  json::JsonWriter W;
  json::beginToolRecord(W, "irlt-opt");
  W.field("ok", true);
  W.field("mode", !Auto.empty() ? "auto" : "script");

  if (WantMatrices) {
    std::string M = P.boundsMatrices(Nest);
    if (JsonMode)
      W.field("matrices", M);
    else
      std::printf("%s", M.c_str());
  }

  std::shared_ptr<const DepSet> D = P.dependences(Nest);
  if (JsonMode)
    W.field("deps", D->str());
  else if (WantDeps)
    std::printf("dependences: %s\n", D->str().c_str());

  TransformSequence Seq;
  if (!Auto.empty()) {
    if (!Script.empty()) {
      std::fprintf(stderr, "error: --auto and --script are exclusive\n");
      return 1;
    }
    search::SearchOptions SO;
    SO.Obj = Auto == "locality"  ? search::Objective::Locality
             : Auto == "par"     ? search::Objective::Parallelism
                                 : search::Objective::Both;
    search::SearchResult SR = P.searchAuto(Nest, SO);
    if (!SR.Error.empty()) {
      std::fprintf(stderr, "auto: %s\n", SR.Error.c_str());
      return fail(JsonMode, "auto: " + SR.Error);
    }
    if (SR.Best)
      Seq = SR.Best->Seq;
    if (WantReduce)
      Seq = Seq.reduced();
    if (!JsonMode)
      std::printf("auto sequence: %s\n", Seq.str().c_str());

    // Guarded mode: cross-check the candidates by concrete execution
    // and degrade best-first -> next-best -> identity (never an error).
    if (Validate && SR.Best) {
      witness::ValidateOptions VO =
          witness::ValidateOptions::forRequest(VSpec.Native, VSpec.Budget);
      std::vector<TransformSequence> Cands;
      for (const search::ScoredSequence &S : SR.Top)
        Cands.push_back(S.Seq);
      if (Cands.empty())
        Cands.push_back(SR.Best->Seq);
      witness::LadderResult LR = P.validate(Nest, Cands, VO);
      if (JsonMode) {
        witness::writeLadder(W, LR);
      } else {
        for (size_t K = 0; K < LR.Outcomes.size(); ++K) {
          const witness::CandidateOutcome &O = LR.Outcomes[K];
          std::printf("validate #%zu: %s - %s\n", K + 1,
                      witness::validateStatusName(O.Status),
                      O.Detail.c_str());
          if (!O.ReproPath.empty())
            std::printf("  reproducer: %s\n", O.ReproPath.c_str());
        }
      }
      if (LR.fellBackToIdentity()) {
        Seq = TransformSequence();
        if (!JsonMode)
          std::printf("validated sequence: identity (every candidate was "
                      "disproved)\n");
      } else {
        Seq = Cands[static_cast<size_t>(LR.Chosen)];
        if (WantReduce)
          Seq = Seq.reduced();
        if (!JsonMode)
          std::printf("validated sequence: %s\n", Seq.str().c_str());
      }
    }
  } else if (!Script.empty()) {
    ErrorOr<TransformSequence> SeqOr = P.parseScript(Script, Nest.numLoops());
    if (!SeqOr) {
      std::fprintf(stderr, "script: %s\n", SeqOr.message().c_str());
      return fail(JsonMode, "script: " + SeqOr.message());
    }
    Seq = SeqOr.take();
    if (WantReduce)
      Seq = Seq.reduced();
    if (!JsonMode)
      std::printf("sequence: %s\n", Seq.str().c_str());
  }
  if (JsonMode)
    W.field("sequence", Seq.str());

  bool Illegal = false;
  if (WantAnalyze) {
    analysis::AnalysisReport AR = P.analyze(Seq, Nest);
    if (JsonMode) {
      W.key("analysis");
      analysis::writeReport(W, AR);
    } else {
      std::printf("analysis: %u error(s), %u warning(s)\n", AR.errorCount(),
                  AR.warningCount());
      for (const analysis::Finding &F : AR.Findings)
        std::printf("%s: %s\n", analysis::severityName(F.Severity),
                    F.toDiag().str().c_str());
      if (AR.Fixed)
        std::printf("fixit: %s\n", AR.Fixed->str().c_str());
    }
    // Error-class findings predict (and explain) an illegal sequence;
    // keep the 0-legal/2-illegal exit contract.
    Illegal = Illegal || AR.hasErrors();
  }
  if (WantLegality || WantFastLegality || WantWitness) {
    LegalityResult L = WantFastLegality ? P.checkLegalityFast(Seq, Nest)
                                        : P.checkLegality(Seq, Nest);
    if (JsonMode) {
      W.field("legal", L.Legal);
      W.field("reject_kind", rejectKindName(L.Kind));
      if (!L.Legal)
        W.field("reason", L.Reason);
      else
        W.field("final_deps", L.FinalDeps.str());
    } else {
      std::printf("legal: %s\n", L.Legal ? "yes" : "no");
      std::printf("reject-kind: %s\n", rejectKindName(L.Kind));
      if (!L.Legal)
        std::printf("reason: %s\n", L.Reason.c_str());
      else
        std::printf("mapped dependences: %s\n", L.FinalDeps.str().c_str());
    }
    if (WantWitness) {
      // The certificate is produced by the full (not fast-path) test and
      // machine-checked on the spot; a check failure is a tool bug worth
      // a hard error.
      witness::Certificate C = P.certify(Seq, Nest);
      std::string E = P.checkCertificate(C, Seq, Nest);
      if (JsonMode) {
        W.key("witness").beginObject();
        W.field("certificate", C.str());
        W.field("check", E.empty() ? "ok" : E);
        W.endObject();
      } else {
        std::printf("%s", C.str().c_str());
        std::printf("witness-check: %s\n", E.empty() ? "ok" : E.c_str());
      }
      if (!E.empty()) {
        if (JsonMode) {
          W.endObject();
          std::printf("%s\n", W.take().c_str());
        }
        return 1;
      }
    }
    // Exit-code contract: 0 legal, 2 illegal, 1 tool/usage error.
    Illegal = Illegal || !L.Legal;
  }

  if (Illegal) {
    if (JsonMode) {
      W.endObject();
      std::printf("%s\n", W.take().c_str());
    }
    return 2;
  }

  // Transformed (or original, with an empty script) nest output.
  ErrorOr<LoopNest> Out = P.apply(Seq, Nest);
  if (!Out) {
    std::fprintf(stderr, "apply: %s\n", Out.message().c_str());
    return fail(JsonMode, "apply: " + Out.message());
  }

  if (EmitProgram) {
    // The full differential harness (docs/CODEGEN.md): original +
    // transformed kernels, seeded arrays, checksum main. Bindings come
    // from --verify when given, else the corpus defaults.
    std::map<std::string, int64_t> Bindings{{"n", 16}, {"m", 12}, {"b", 4}};
    if (!VerifySpec.empty() && !parseBindings(VerifySpec, Bindings))
      return fail(JsonMode, "malformed --verify bindings '" + VerifySpec +
                                "'");
    ErrorOr<std::vector<cgen::ArrayShape>> Shapes =
        cgen::arrayShapes(Nest, Bindings, 1u << 22);
    if (!Shapes)
      return fail(JsonMode, "shape inference failed: " + Shapes.message());
    cgen::ProgramOptions PO;
    PO.Bindings = Bindings;
    ErrorOr<std::string> Program =
        cgen::emitProgram(Nest, &*Out, *Shapes, PO);
    if (!Program)
      return fail(JsonMode, "emission failed: " + Program.message());
    if (JsonMode)
      W.field("output", *Program);
    else
      std::printf("%s", Program->c_str());
  } else if (Emit == "c") {
    std::string C = P.emit(*Out, api::EmitKind::C);
    if (JsonMode)
      W.field("output", C);
    else
      std::printf("%s", C.c_str());
  } else if (Emit == "loop" || (!WantDeps && !WantMatrices && !WantLegality &&
                                !WantFastLegality && VerifySpec.empty())) {
    std::string S = P.emit(*Out, api::EmitKind::Loop);
    if (JsonMode)
      W.field("output", S);
    else
      std::printf("%s", S.c_str());
  }

  int Exit = 0;
  if (!VerifySpec.empty()) {
    EvalConfig C;
    if (!parseBindings(VerifySpec, C.Params)) {
      std::fprintf(stderr, "error: malformed --verify bindings '%s'\n",
                   VerifySpec.c_str());
      return fail(JsonMode, "malformed --verify bindings '" + VerifySpec +
                                "'");
    }
    // A pathological binding must terminate with a clean "budget
    // exhausted" verdict rather than hang the tool.
    C.WallBudgetMillis = 30'000;
    VerifyResult V = P.verify(Nest, *Out, C);
    if (JsonMode) {
      W.key("verify").beginObject();
      W.field("bindings", VerifySpec);
      W.field("equivalent", V.Ok);
      if (!V.Ok)
        W.field("problem", V.Problem);
      W.endObject();
    } else {
      std::printf("verify(%s): %s\n", VerifySpec.c_str(),
                  V.Ok ? "equivalent" : V.Problem.c_str());
    }
    if (!V.Ok)
      Exit = 1;
  }

  if (JsonMode) {
    W.endObject();
    std::printf("%s\n", W.take().c_str());
  }
  return Exit;
}
