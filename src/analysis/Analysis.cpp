//===- analysis/Analysis.cpp - Static diagnostics for scripts ------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include "deps/CrossCheck.h"
#include "deps/DepOracle.h"
#include "legality/IncrementalEngine.h"
#include "support/Casting.h"
#include "support/MathUtils.h"
#include "transform/Templates.h"
#include "transform/TypeState.h"

#include <cstdlib>

using namespace irlt;
using namespace irlt::analysis;

const char *irlt::analysis::severityName(FindingSeverity S) {
  return S == FindingSeverity::Error ? "error" : "warning";
}

const std::vector<RuleInfo> &irlt::analysis::ruleRegistry() {
  static const std::vector<RuleInfo> Registry = {
      {"E100", FindingSeverity::Error,
       "final dependence vector admits a lexicographically negative tuple",
       "Table 2; Section 3.2"},
      {"E101", FindingSeverity::Error,
       "Table 3 loop-bounds precondition violated", "Table 3; Section 4.1"},
      {"E102", FindingSeverity::Error,
       "Table 4 loop-bounds precondition violated", "Table 4; Section 4.2"},
      {"E103", FindingSeverity::Error,
       "anchor-dependence side condition violated",
       "Definition 3.4; DESIGN.md section 5"},
      {"E104", FindingSeverity::Error,
       "coefficient arithmetic overflows the int64 range",
       "support/MathUtils.h saturation"},
      {"E105", FindingSeverity::Error,
       "bounds pipeline failed to apply the stage", "Section 4"},
      {"E106", FindingSeverity::Error,
       "stage arity does not match the current nest", "Section 2"},
      {"W200", FindingSeverity::Warning,
       "adjacent stages fold into one (the reduced() peephole)",
       "Section 2 efficiency note"},
      {"W201", FindingSeverity::Warning, "identity stage has no effect",
       "Section 2"},
      {"W202", FindingSeverity::Warning,
       "dependence direction information lost before a later Parallelize",
       "Table 2; Section 3.1"},
      {"W203", FindingSeverity::Warning,
       "generated loop bounds degrade to nonlinear", "Tables 3-4; Section 4.1"},
      {"W204", FindingSeverity::Warning,
       "saturation-risk coefficient magnitude in bounds",
       "support/MathUtils.h"},
      {"W205", FindingSeverity::Warning,
       "dependence analysis is conservative vs the exact backend",
       "deps/CrossCheck.h; docs/DEPENDENCE.md"},
      {"W206", FindingSeverity::Warning,
       "dependence analysis under-reports vs the exact backend",
       "deps/CrossCheck.h; docs/DEPENDENCE.md"},
  };
  return Registry;
}

unsigned irlt::analysis::ruleRegistryVersion() { return 2; }

const RuleInfo *irlt::analysis::findRule(std::string_view Id) {
  for (const RuleInfo &R : ruleRegistry())
    if (Id == R.Id)
      return &R;
  return nullptr;
}

Diag Finding::toDiag() const {
  Diag D("[" + RuleId + "] " + Message);
  D.Severity = Severity == FindingSeverity::Error ? DiagSeverity::Error
                                                  : DiagSeverity::Warning;
  if (Stage)
    D.atStage(Stage);
  if (!TemplateName.empty())
    D.inTemplate(TemplateName);
  return D;
}

unsigned AnalysisReport::errorCount() const {
  unsigned N = 0;
  for (const Finding &F : Findings)
    N += F.Severity == FindingSeverity::Error;
  return N;
}

unsigned AnalysisReport::warningCount() const {
  unsigned N = 0;
  for (const Finding &F : Findings)
    N += F.Severity == FindingSeverity::Warning;
  return N;
}

namespace {

Finding makeFinding(const char *Id) {
  const RuleInfo *R = findRule(Id);
  Finding F;
  F.RuleId = Id;
  F.Severity = R->Severity;
  F.Citation = R->Citation;
  return F;
}

/// Templates whose bounds rules live in Table 4 (the splitting templates;
/// StripMine is the Kind::Custom extension of the Block decomposition).
bool usesTable4(TransformTemplate::Kind K) {
  using Kind = TransformTemplate::Kind;
  return K == Kind::Block || K == Kind::Interleave || K == Kind::Custom;
}

/// Where in a loop header the worst-typed expression sits.
enum class HeaderExpr { Lower, Upper, Step };

const char *headerExprName(HeaderExpr E) {
  switch (E) {
  case HeaderExpr::Lower:
    return "lower bound";
  case HeaderExpr::Upper:
    return "upper bound";
  case HeaderExpr::Step:
    return "step";
  }
  return "?";
}

/// The worst (lattice-highest) classification in \p State over every loop
/// header expression with respect to every index position, with the
/// argmax for attribution.
BoundType stateWorst(const NestTypeState &State, unsigned *WorstLoop = nullptr,
                     HeaderExpr *WorstExpr = nullptr) {
  BoundType W = BoundType::Const;
  for (unsigned L = 0; L < State.numLoops(); ++L) {
    const LoopTypeInfo &Info = State.Loops[L];
    for (unsigned P = 0; P < State.numLoops(); ++P) {
      struct {
        const ExprTypes *T;
        HeaderExpr Which;
      } Slots[] = {{&Info.LB, HeaderExpr::Lower},
                   {&Info.UB, HeaderExpr::Upper},
                   {&Info.Step, HeaderExpr::Step}};
      for (const auto &Slot : Slots) {
        BoundType T = Slot.T->wrt(P);
        if (!typeLE(T, W)) {
          W = T;
          if (WorstLoop)
            *WorstLoop = L;
          if (WorstExpr)
            *WorstExpr = Slot.Which;
        }
      }
    }
  }
  return W;
}

/// "loop 2 upper bound `n - i`" for the attribution slot of \p Nest.
std::string headerExprDesc(const LoopNest &Nest, unsigned LoopIdx,
                           HeaderExpr Which) {
  if (LoopIdx >= Nest.numLoops())
    return "";
  const Loop &L = Nest.Loops[LoopIdx];
  const ExprRef &E = Which == HeaderExpr::Lower
                         ? L.Lower
                         : (Which == HeaderExpr::Upper ? L.Upper : L.Step);
  return "loop " + std::to_string(LoopIdx + 1) + " " + headerExprName(Which) +
         " `" + (E ? E->str() : "?") + "`";
}

/// Largest integer-literal magnitude anywhere in \p E.
uint64_t maxConstMagnitude(const ExprRef &E) {
  if (!E)
    return 0;
  switch (E->kind()) {
  case Expr::Kind::IntConst:
    return magnitude(cast<IntConstExpr>(E.get())->value());
  case Expr::Kind::Var:
    return 0;
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul:
  case Expr::Kind::Div:
  case Expr::Kind::Mod: {
    const auto *B = cast<BinaryExpr>(E.get());
    uint64_t L = maxConstMagnitude(B->lhs());
    uint64_t R = maxConstMagnitude(B->rhs());
    return L > R ? L : R;
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max: {
    uint64_t M = 0;
    for (const ExprRef &Op : cast<MinMaxExpr>(E.get())->operands())
      M = std::max(M, maxConstMagnitude(Op));
    return M;
  }
  case Expr::Kind::Call: {
    uint64_t M = 0;
    for (const ExprRef &Arg : cast<CallExpr>(E.get())->args())
      M = std::max(M, maxConstMagnitude(Arg));
    return M;
  }
  }
  return 0;
}

/// Above this magnitude, two coefficients multiplied in the bounds
/// pipeline can leave the int64 range and saturate (MathUtils mulChecked).
constexpr uint64_t SaturationRiskMagnitude = uint64_t(1) << 31;

/// True when every vector of \p D is an exact distance vector.
bool allDistanceVectors(const DepSet &D) {
  for (const DepVector &V : D.vectors())
    if (!V.allDistances())
      return false;
  return true;
}

/// Finds a vector of \p D carrying a full '*' entry (all three sign
/// bits); returns its rendering, or empty when none.
std::string findStarVector(const DepSet &D) {
  for (const DepVector &V : D.vectors())
    for (const DepElem &E : V.elems())
      if (E.isDirection() && E.canBeNegative() && E.canBeZero() &&
          E.canBePositive())
        return V.str();
  return "";
}

/// The structural lint pass: rules that need no nest state (W200, W201,
/// W204) over the whole sequence, emitted in stage order.
void lintStructure(const TransformSequence &T, const LoopNest &Nest,
                   std::vector<Finding> &Out) {
  const std::vector<TemplateRef> &Steps = T.steps();

  // W204 on the source nest's own bound coefficients (stage 0).
  for (unsigned L = 0; L < Nest.numLoops(); ++L) {
    struct {
      const ExprRef *E;
      HeaderExpr Which;
    } Slots[] = {{&Nest.Loops[L].Lower, HeaderExpr::Lower},
                 {&Nest.Loops[L].Upper, HeaderExpr::Upper},
                 {&Nest.Loops[L].Step, HeaderExpr::Step}};
    for (const auto &Slot : Slots) {
      if (maxConstMagnitude(*Slot.E) < SaturationRiskMagnitude)
        continue;
      Finding F = makeFinding("W204");
      F.Bounds = headerExprDesc(Nest, L, Slot.Which);
      F.Message = "nest " + F.Bounds +
                  " carries a coefficient large enough that bounds-pipeline "
                  "arithmetic can saturate int64 (degrading legality answers "
                  "to overflow rejections)";
      Out.push_back(std::move(F));
    }
  }

  for (unsigned I = 0; I < Steps.size(); ++I) {
    const TransformTemplate &Step = *Steps[I];
    unsigned Stage = I + 1;

    if (isIdentityStage(Step)) {
      Finding F = makeFinding("W201");
      F.Stage = Stage;
      F.TemplateName = Step.name();
      F.Message = "stage is an identity " + Step.name() +
                  " and reorders nothing; drop it";
      F.FixIt = "delete stage " + std::to_string(Stage);
      Out.push_back(std::move(F));
    }

    // W204 on template coefficients.
    uint64_t ParamMag = 0;
    std::string ParamDesc;
    if (const auto *U = dyn_cast<UnimodularTemplate>(&Step)) {
      for (unsigned R = 0; R < U->matrix().size(); ++R)
        for (unsigned C = 0; C < U->matrix().size(); ++C)
          ParamMag = std::max(ParamMag, magnitude(U->matrix().at(R, C)));
      ParamDesc = "matrix entry";
    } else if (const auto *B = dyn_cast<BlockTemplate>(&Step)) {
      for (const ExprRef &S : B->bsize())
        ParamMag = std::max(ParamMag, maxConstMagnitude(S));
      ParamDesc = "block size";
    } else if (const auto *IL = dyn_cast<InterleaveTemplate>(&Step)) {
      for (const ExprRef &S : IL->isize())
        ParamMag = std::max(ParamMag, maxConstMagnitude(S));
      ParamDesc = "interleave size";
    } else if (const auto *SM = dyn_cast<StripMineTemplate>(&Step)) {
      ParamMag = maxConstMagnitude(SM->size());
      ParamDesc = "strip size";
    }
    if (ParamMag >= SaturationRiskMagnitude) {
      Finding F = makeFinding("W204");
      F.Stage = Stage;
      F.TemplateName = Step.name();
      F.Bounds = ParamDesc + " in " + Step.str();
      F.Message = Step.name() + " " + ParamDesc +
                  " is large enough that bounds-pipeline arithmetic can "
                  "saturate int64";
      Out.push_back(std::move(F));
    }

    // W200: this stage and the next fold into one under reduced().
    // Folding huge-entry matrices can saturate int64; a degraded fold is
    // not a truthful finding, so it is skipped (W204 already flags the
    // saturation risk itself).
    if (I + 1 < Steps.size()) {
      TransformSequence Pair(
          std::vector<TemplateRef>{Steps[I], Steps[I + 1]});
      OverflowGuard Shield;
      if (Pair.reduced().size() == 1 && !Shield.triggered()) {
        Finding F = makeFinding("W200");
        F.Stage = Stage;
        F.TemplateName = Step.name();
        F.Message = "stages " + std::to_string(Stage) + " and " +
                    std::to_string(Stage + 1) + " (" + Step.name() + ", " +
                    Steps[I + 1]->name() +
                    ") fold into a single stage under reduced()";
        F.FixIt = "replace both stages with " +
                  Pair.reduced().steps().front()->str();
        Out.push_back(std::move(F));
      }
    }
  }
}

/// The rule of a stage rejection (E106 and E100 are the walk's own
/// checks before and after the stages).
const char *stageRule(LegalityResult::RejectKind K,
                      TransformTemplate::Kind Template) {
  using RK = LegalityResult::RejectKind;
  switch (K) {
  case RK::Overflow:
    return "E104";
  case RK::BoundsPrecondition:
    return usesTable4(Template) ? "E102" : "E101";
  case RK::DependencePrecondition:
    return "E103";
  default:
    return "E105";
  }
}

} // namespace

bool irlt::analysis::isIdentityStage(const TransformTemplate &T) {
  using Kind = TransformTemplate::Kind;
  switch (T.kind()) {
  case Kind::Unimodular: {
    const auto &M = cast<UnimodularTemplate>(&T)->matrix();
    for (unsigned R = 0; R < M.size(); ++R)
      for (unsigned C = 0; C < M.size(); ++C)
        if (M.at(R, C) != (R == C ? 1 : 0))
          return false;
    return true;
  }
  case Kind::ReversePermute: {
    const auto *RP = cast<ReversePermuteTemplate>(&T);
    for (unsigned K = 0; K < RP->inputSize(); ++K)
      if (RP->rev()[K] || RP->perm()[K] != K)
        return false;
    return true;
  }
  case Kind::Parallelize: {
    for (bool Flag : cast<ParallelizeTemplate>(&T)->parFlag())
      if (Flag)
        return false;
    return true;
  }
  default:
    return false;
  }
}

TransformSequence irlt::analysis::fixitSequence(const TransformSequence &T) {
  // Strip-then-fold to a fixed point: folding two interchanges yields an
  // identity ReversePermute that the next strip pass drops, and dropping
  // a stage can make its neighbours adjacent and foldable again.
  TransformSequence Cur = T;
  for (;;) {
    std::vector<TemplateRef> Kept;
    for (const TemplateRef &Step : Cur.steps())
      if (!isIdentityStage(*Step))
        Kept.push_back(Step);
    TransformSequence Next = TransformSequence(std::move(Kept)).reduced();
    if (Next.size() == Cur.size())
      return Next;
    Cur = std::move(Next);
  }
}

bool irlt::analysis::finalDepsRejectable(const DepSet &MappedFinal) {
  return !MappedFinal.allLexNonNegative();
}

AnalysisReport irlt::analysis::analyzeSequence(const TransformSequence &T,
                                               const LoopNest &Nest,
                                               const DepSet &D,
                                               const AnalysisOptions &Opts) {
  AnalysisReport Report;
  const std::vector<TemplateRef> &Steps = T.steps();

  if (Opts.Lint)
    lintStructure(T, Nest, Report.Findings);

  // Does any stage strictly after index I parallelize? (for W202)
  auto laterParallelize = [&](unsigned I) {
    for (unsigned J = I + 1; J < Steps.size(); ++J)
      if (Steps[J]->kind() == TransformTemplate::Kind::Parallelize)
        return true;
    return false;
  };

  // The walk: the stage function that mirrors isLegal()'s walk
  // (legality::stepStage, full mode, no cache), so a sequence is
  // error-clean here exactly when isLegal() accepts it. Provenance and
  // lint read the states before and after each stage under their own
  // guards.
  legality::PrefixState Cur;
  Cur.Nest = Nest;
  Cur.Deps = D;
  bool Errored = false;
  for (unsigned I = 0; I < Steps.size(); ++I) {
    const TemplateRef &Step = Steps[I];
    unsigned Stage = I + 1;

    // Defensive arity check so malformed hand-built sequences diagnose
    // instead of indexing out of range inside a template.
    if (Step->inputSize() != Cur.Nest.numLoops()) {
      Finding F = makeFinding("E106");
      F.Stage = Stage;
      F.TemplateName = Step->name();
      F.Message = Step->name() + " expects " +
                  std::to_string(Step->inputSize()) +
                  " loops but the nest has " +
                  std::to_string(Cur.Nest.numLoops()) + " at this stage";
      Report.Findings.push_back(std::move(F));
      return Report;
    }

    // Lattice provenance of the nest state this stage observes.
    unsigned WorstLoop = 0;
    HeaderExpr WorstExpr = HeaderExpr::Lower;
    BoundType PreWorst = BoundType::Const;
    {
      OverflowGuard Shield;
      PreWorst = stateWorst(NestTypeState::fromNest(Cur.Nest), &WorstLoop,
                            &WorstExpr);
    }

    legality::StageOutcome Out =
        legality::stepStage(Cur, Steps, legality::Mode::Full);
    if (!Out.Next) {
      using RK = LegalityResult::RejectKind;
      const RK K = Out.Fail.Kind;
      Finding F = makeFinding(stageRule(K, Step->kind()));
      F.Stage = Out.Fail.Why.Stage;
      F.TemplateName = Step->name();
      F.Message = Out.Fail.Why.Message;
      if (K != RK::Overflow)
        F.Lattice = typeName(PreWorst);
      if (K == RK::BoundsPrecondition)
        F.Bounds = headerExprDesc(Cur.Nest, WorstLoop, WorstExpr);
      if (K == RK::DependencePrecondition && Cur.Deps.str().size() <= 200)
        F.DepVector = Cur.Deps.str();
      Report.Findings.push_back(std::move(F));
      Errored = true;
      break;
    }
    const legality::PrefixState &Next = *Out.Next;

    if (Opts.Lint) {
      // W203: this stage's generated bounds introduced a nonlinear
      // classification the input nest did not have.
      if (usesTable4(Step->kind()) ||
          Step->kind() == TransformTemplate::Kind::Coalesce) {
        OverflowGuard Shield;
        unsigned OutLoop = 0;
        HeaderExpr OutExpr = HeaderExpr::Lower;
        BoundType PostWorst = stateWorst(NestTypeState::fromNest(Next.Nest),
                                         &OutLoop, &OutExpr);
        if (PostWorst == BoundType::Nonlinear &&
            PreWorst != BoundType::Nonlinear) {
          Finding F = makeFinding("W203");
          F.Stage = Stage;
          F.TemplateName = Step->name();
          F.Lattice = typeName(PostWorst);
          F.Bounds = headerExprDesc(Next.Nest, OutLoop, OutExpr);
          F.Message =
              Step->name() +
              " generates nonlinear loop bounds here (" + F.Bounds +
              "), which blocks every Table 3 template downstream";
          Report.Findings.push_back(std::move(F));
        }
      }

      // W202: an exact distance set degraded to a full '*' direction
      // while a later Parallelize still has to prove independence.
      if (allDistanceVectors(Cur.Deps) && laterParallelize(I)) {
        std::string Star = findStarVector(Next.Deps);
        if (!Star.empty()) {
          Finding F = makeFinding("W202");
          F.Stage = Stage;
          F.TemplateName = Step->name();
          F.DepVector = Star;
          F.Message = Step->name() +
                      " degrades an exact distance vector to the '*' "
                      "direction (" +
                      Star +
                      "), blinding the later Parallelize stage's "
                      "legality test";
          Report.Findings.push_back(std::move(F));
        }
      }
    }

    Cur = std::move(*Out.Next);
  }

  // Final lexicographic test on the fully mapped set (isLegal part (a)).
  if (!Errored) {
    for (const DepVector &V : Cur.Deps.vectors()) {
      if (V.canBeLexNegative()) {
        Finding F = makeFinding("E100");
        F.Message = "transformed dependence vector " + V.str() +
                    " admits a lexicographically negative tuple";
        F.DepVector = V.str();
        {
          OverflowGuard Shield;
          F.Lattice =
              typeName(stateWorst(NestTypeState::fromNest(Cur.Nest)));
        }
        Report.Findings.push_back(std::move(F));
        break;
      }
    }
  }

  // Opt-in dependence-oracle cross-check (docs/DEPENDENCE.md): diff the
  // production analyzer against the first-principles fm-exact backend on
  // the *source* nest. Under-reporting (W206) means every verdict above
  // was computed from a possibly-incomplete dependence set - still a
  // warning, not an error, because the error class must stay equivalent
  // to isLegal() (the fuzzer's analyzer oracle relies on that), and
  // isLegal() shares the production set. Whole-sequence findings: Stage 0.
  if (Opts.Lint && Opts.CrossCheckDeps) {
    deps::DepResult Fast = deps::pipelineOracle().analyze(Nest);
    deps::DepResult Exact = deps::fmExactOracle().analyze(Nest);
    deps::CrossCheckResult CC = deps::crossCheckDeps(Fast, Exact);
    for (const DepVector &V : CC.Uncovered) {
      Finding F = makeFinding("W206");
      F.Message = "exact backend reports dependence vector " + V.str() +
                  " that no production vector covers (soundness "
                  "divergence; replay: irlt-opt <nest> --deps-diff)";
      F.DepVector = V.str();
      Report.Findings.push_back(std::move(F));
    }
    if (CC.Stat == deps::CrossCheckResult::Status::PrecisionGap) {
      for (const DepVector &V : CC.Extra) {
        Finding F = makeFinding("W205");
        F.Message = "production dependence vector " + V.str() +
                    " lies beyond the exact backend's set (conservative "
                    "over-approximation; may forbid legal transforms)";
        F.DepVector = V.str();
        Report.Findings.push_back(std::move(F));
      }
    }
  }

  // A fix-it exists when a droppable/foldable lint rule fired. Fusing can
  // saturate int64 on huge-entry matrices; a degraded fix-it would not be
  // equivalent to the input, so it is dropped rather than reported.
  for (const Finding &F : Report.Findings) {
    if (F.RuleId == "W200" || F.RuleId == "W201") {
      OverflowGuard Shield;
      TransformSequence Fixed = fixitSequence(T);
      if (!Shield.triggered())
        Report.Fixed = std::move(Fixed);
      break;
    }
  }
  return Report;
}

void irlt::analysis::writeReport(json::JsonWriter &W,
                                 const AnalysisReport &R) {
  W.beginObject();
  W.field("errors", R.errorCount());
  W.field("warnings", R.warningCount());
  W.key("findings").beginArray();
  for (const Finding &F : R.Findings) {
    W.beginObject();
    W.field("rule", F.RuleId);
    W.field("severity", severityName(F.Severity));
    W.field("stage", F.Stage);
    if (!F.TemplateName.empty())
      W.field("template", F.TemplateName);
    W.field("message", F.Message);
    W.field("citation", F.Citation);
    if (!F.Lattice.empty())
      W.field("lattice", F.Lattice);
    if (!F.DepVector.empty())
      W.field("dep_vector", F.DepVector);
    if (!F.Bounds.empty())
      W.field("bounds", F.Bounds);
    if (!F.FixIt.empty())
      W.field("fixit", F.FixIt);
    W.endObject();
  }
  W.endArray();
  if (R.Fixed)
    W.field("fixed_sequence", R.Fixed->str());
  W.endObject();
}

std::vector<Diag> irlt::analysis::toDiags(const AnalysisReport &R) {
  std::vector<Diag> Out;
  Out.reserve(R.Findings.size());
  for (const Finding &F : R.Findings)
    Out.push_back(F.toDiag());
  return Out;
}
