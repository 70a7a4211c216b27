//===- witness/Witness.cpp - Machine-checkable legality certificates -----===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "witness/Witness.h"

#include "eval/Verify.h"
#include "support/MathUtils.h"
#include "transform/Templates.h"

#include <algorithm>
#include <map>

using namespace irlt;
using namespace irlt::witness;

WitnessOptions WitnessOptions::defaults() {
  WitnessOptions O;
  // Mirrors fuzz::DifferentialOptions::defaults() so certificates and
  // fuzz reproducers agree on the concrete bindings.
  O.Bindings = {{{"n", 6}, {"m", 4}, {"b", 2}},
                {{"n", 9}, {"m", 5}, {"b", 3}}};
  return O;
}

std::vector<int64_t> irlt::witness::lexNegativeTuple(const DepVector &V) {
  // Mirror of DepVector::canBeLexNegative: walk for the first position
  // whose entry can be negative while every earlier entry can be zero.
  std::vector<int64_t> T;
  for (unsigned K = 0; K < V.size(); ++K) {
    const DepElem &E = V[K];
    if (E.canBeNegative()) {
      T.push_back(E.isDistance() ? E.dist() : -1);
      // The tail is unconstrained by lexicographic order; pick any member
      // of each entry's value set.
      for (unsigned R = K + 1; R < V.size(); ++R) {
        const DepElem &F = V[R];
        if (F.isDistance())
          T.push_back(F.dist());
        else if (F.canBeZero())
          T.push_back(0);
        else if (F.canBePositive())
          T.push_back(1);
        else
          T.push_back(-1);
      }
      return T;
    }
    if (!E.canBeZero())
      return {}; // the zero prefix is unreachable from here on
    T.push_back(0);
  }
  return {};
}

namespace {

std::string tupleStr(const std::vector<int64_t> &T) {
  std::string S = "(";
  for (size_t I = 0; I < T.size(); ++I)
    S += (I ? ", " : "") + std::to_string(T[I]);
  return S + ")";
}

std::string bindingStr(const std::map<std::string, int64_t> &B) {
  std::string S;
  for (const auto &[K, V] : B)
    S += (S.empty() ? "" : ",") + K + "=" + std::to_string(V);
  return S;
}

bool isLexNegative(const std::vector<int64_t> &T) {
  for (int64_t V : T) {
    if (V < 0)
      return true;
    if (V > 0)
      return false;
  }
  return false;
}

EvalConfig makeConfig(const std::map<std::string, int64_t> &Binding,
                      const WitnessOptions &Opts) {
  EvalConfig C;
  C.Params = Binding;
  C.MaxInstances = Opts.MaxInstances;
  C.WallBudgetMillis = Opts.WallBudgetMillis;
  C.RecordTrace = true;
  C.RecordAccesses = true;
  C.ExecuteBody = true;
  return C;
}

/// Hunts a concrete violating iteration pair for a rejected sequence by
/// applying it and running the execution verifier under each binding.
void attachConcretePair(Certificate &C, const TransformSequence &Seq,
                        const LoopNest &Nest, const WitnessOptions &Opts) {
  ErrorOr<LoopNest> Out = applySequence(Seq, Nest);
  if (!Out)
    return; // the bounds pipeline refuses: no transformed nest to run
  for (const auto &Binding : Opts.Bindings) {
    VerifyResult V = verifyTransformed(Nest, *Out, makeConfig(Binding, Opts));
    if (V.Ok || !V.Counterexample)
      continue;
    C.HasPair = true;
    C.PairBinding = Binding;
    C.SrcIter = V.Counterexample->SrcIter;
    C.DstIter = V.Counterexample->DstIter;
    C.SrcPosT = V.Counterexample->SrcPosT;
    C.DstPosT = V.Counterexample->DstPosT;
    return;
  }
}

} // namespace

Certificate irlt::witness::certify(const TransformSequence &Seq,
                                   const LoopNest &Nest, const DepSet &D,
                                   const WitnessOptions &Opts) {
  Certificate C;
  // The uncached walk of the uniform test: the certificate's verdict
  // fields are byte-identical to what every caller of the test observes,
  // through a prefix engine or not, and certifying touches no cache.
  LegalityResult L = isLegal(Seq, Nest, D);
  C.Accepted = L.Legal;
  C.Kind = L.Kind;
  C.Reason = L.Reason;
  C.Why = L.Why;

  if (L.Legal) {
    // Acceptance: record the per-stage rule applications. The sequence
    // was accepted, so re-running the mapping rules cannot overflow; the
    // guard is belt-and-braces against a diverging re-derivation.
    DepSet Cur = D;
    unsigned Stage = 0;
    for (const TemplateRef &Step : Seq.steps()) {
      OverflowGuard Guard;
      StageTrace T;
      T.Stage = ++Stage;
      T.Template = Step->str();
      T.In = Cur;
      T.Out = Step->mapDependences(Cur);
      if (Guard.triggered()) {
        C.Stages.clear();
        break;
      }
      Cur = T.Out;
      C.Stages.push_back(std::move(T));
    }
    C.FinalDeps = L.FinalDeps;
    return C;
  }

  if (L.Kind == LegalityResult::RejectKind::LexNegative) {
    C.FinalDeps = L.FinalDeps;
    for (const DepVector &V : L.FinalDeps.vectors()) {
      if (!V.canBeLexNegative())
        continue;
      C.HasBadVector = true;
      C.BadVector = V;
      C.BadTuple = lexNegativeTuple(V);
      break;
    }
    // A lex-negative final set means apply() succeeds (the bounds stages
    // all passed), so a concrete reordered pair is usually observable.
    attachConcretePair(C, Seq, Nest, Opts);
  }
  return C;
}

std::string irlt::witness::checkViolationPair(const LoopNest &Original,
                                              const LoopNest &Transformed,
                                              const std::vector<int64_t> &Src,
                                              const std::vector<int64_t> &Dst,
                                              const EvalConfig &Config) {
  EvalConfig C = Config;
  C.RecordTrace = true;
  C.RecordAccesses = true;
  C.ExecuteBody = true;

  ArrayStore StoreO, StoreT;
  EvalResult RunO = evaluate(Original, C, StoreO);
  if (RunO.LimitHit)
    return "original nest: " + RunO.LimitReason;
  EvalResult RunT = evaluate(Transformed, C, StoreT);
  if (RunT.LimitHit)
    return "transformed nest: " + RunT.LimitReason;

  // The claimed instances must exist in the original run, Src first.
  std::map<std::vector<int64_t>, uint64_t> PosO;
  for (uint64_t I = 0; I < RunO.Instances.size(); ++I)
    PosO.emplace(RunO.Instances[I], I);
  auto SrcO = PosO.find(Src);
  auto DstO = PosO.find(Dst);
  if (SrcO == PosO.end())
    return "claimed source iteration " + tupleStr(Src) +
           " does not execute in the original nest";
  if (DstO == PosO.end())
    return "claimed destination iteration " + tupleStr(Dst) +
           " does not execute in the original nest";
  if (SrcO->second >= DstO->second)
    return "claimed pair is not ordered source-first in the original nest";

  // The pair must actually be dependent (same cell, >= 1 write).
  std::vector<std::pair<uint64_t, uint64_t>> Pairs =
      dependentInstancePairs(RunO);
  if (!std::binary_search(Pairs.begin(), Pairs.end(),
                          std::make_pair(SrcO->second, DstO->second)))
    return "claimed pair " + tupleStr(Src) + " -> " + tupleStr(Dst) +
           " carries no dependence in the original nest";

  // And the transformed nest must fail to order it: either Src runs
  // at-or-after Dst, or the two runs are unordered under a pardo loop.
  std::map<std::vector<int64_t>, uint64_t> PosT;
  for (uint64_t I = 0; I < RunT.Instances.size(); ++I)
    PosT.emplace(RunT.Instances[I], I);
  auto SrcT = PosT.find(Src);
  auto DstT = PosT.find(Dst);
  if (SrcT == PosT.end() || DstT == PosT.end())
    return "claimed pair does not execute in the transformed nest";
  if (SrcT->second >= DstT->second)
    return ""; // reordered: the violation is concrete
  const std::vector<int64_t> &LA = RunT.LoopTuples[SrcT->second];
  const std::vector<int64_t> &LB = RunT.LoopTuples[DstT->second];
  for (unsigned K = 0; K < Transformed.numLoops(); ++K) {
    if (LA[K] == LB[K])
      continue;
    if (Transformed.Loops[K].Kind == LoopKind::ParDo)
      return ""; // unordered under a pardo: the violation is concrete
    break;
  }
  return "claimed pair executes in dependence order in the transformed "
         "nest (no violation)";
}

std::string irlt::witness::checkCertificate(const Certificate &C,
                                            const TransformSequence &Seq,
                                            const LoopNest &Nest,
                                            const DepSet &D,
                                            const WitnessOptions &Opts) {
  LegalityResult L = isLegal(Seq, Nest, D);
  if (L.Legal != C.Accepted)
    return std::string("verdict mismatch: certificate says ") +
           (C.Accepted ? "accept" : "reject") + ", legality test says " +
           (L.Legal ? "accept" : "reject");

  if (C.Accepted) {
    if (C.Stages.size() != Seq.size())
      return "acceptance trace covers " + std::to_string(C.Stages.size()) +
             " stages, sequence has " + std::to_string(Seq.size());
    DepSet Cur = D;
    for (size_t I = 0; I < C.Stages.size(); ++I) {
      const StageTrace &T = C.Stages[I];
      const TemplateRef &Step = Seq.steps()[I];
      if (T.Template != Step->str())
        return "stage " + std::to_string(I + 1) + " names template '" +
               T.Template + "', sequence has '" + Step->str() + "'";
      if (!(T.In == Cur))
        return "stage " + std::to_string(I + 1) +
               " input set diverges from the re-derived set " + Cur.str();
      OverflowGuard Guard;
      DepSet Mapped = Step->mapDependences(Cur);
      if (Guard.triggered())
        return "stage " + std::to_string(I + 1) +
               " mapping overflows on re-derivation";
      if (!(T.Out == Mapped))
        return "stage " + std::to_string(I + 1) +
               " output set diverges from the re-derived mapping " +
               Mapped.str();
      Cur = std::move(Mapped);
    }
    if (!(C.FinalDeps == Cur))
      return "final dependence set diverges from the re-derived set " +
             Cur.str();
    if (!Cur.allLexNonNegative())
      return "final dependence set admits a lexicographically negative "
             "tuple; the acceptance is unsound";
    return "";
  }

  if (C.Kind != L.Kind)
    return std::string("reject-kind mismatch: certificate says ") +
           rejectKindName(C.Kind) + ", legality test says " +
           rejectKindName(L.Kind);

  if (C.HasBadVector) {
    OverflowGuard Guard;
    DepSet Mapped = mapDependences(Seq, D);
    if (Guard.triggered())
      return "whole-sequence mapping overflows on re-derivation";
    const std::vector<DepVector> &Vs = Mapped.vectors();
    if (std::find(Vs.begin(), Vs.end(), C.BadVector) == Vs.end())
      return "claimed vector " + C.BadVector.str() +
             " is not in the re-derived mapped set " + Mapped.str();
    if (!C.BadVector.canBeLexNegative())
      return "claimed vector " + C.BadVector.str() +
             " cannot be lexicographically negative";
    if (C.BadTuple.empty())
      return "lex-negative rejection carries no concrete tuple";
    if (C.BadTuple.size() != C.BadVector.size())
      return "concrete tuple arity differs from the claimed vector";
    if (!C.BadVector.containsTuple(C.BadTuple))
      return "concrete tuple " + tupleStr(C.BadTuple) +
             " is not a member of Tuples" + C.BadVector.str();
    if (!isLexNegative(C.BadTuple))
      return "concrete tuple " + tupleStr(C.BadTuple) +
             " is not lexicographically negative";
  } else if (C.Kind == LegalityResult::RejectKind::LexNegative) {
    return "lex-negative rejection carries no offending vector";
  }

  if (C.HasPair) {
    ErrorOr<LoopNest> Out = applySequence(Seq, Nest);
    if (!Out)
      return "certificate claims a concrete pair but the sequence fails "
             "to apply: " +
             Out.message();
    std::string E = checkViolationPair(Nest, *Out, C.SrcIter, C.DstIter,
                                       makeConfig(C.PairBinding, Opts));
    if (!E.empty())
      return "concrete pair replay failed: " + E;
  }
  return "";
}

std::string Certificate::str() const {
  std::string S;
  if (Accepted) {
    S = "certificate: ACCEPT\n";
    for (const StageTrace &T : Stages)
      S += "  stage " + std::to_string(T.Stage) + " " + T.Template + ": " +
           T.In.str() + " -> " + T.Out.str() + "\n";
    S += "  final: " + FinalDeps.str() + " is lex-non-negative\n";
    return S;
  }
  S = "certificate: REJECT (" + std::string(rejectKindName(Kind)) + ")\n";
  S += "  reason: " + Reason + "\n";
  if (HasBadVector) {
    S += "  vector: " + BadVector.str();
    if (!BadTuple.empty())
      S += " admits tuple " + tupleStr(BadTuple);
    S += "\n";
  }
  if (HasPair)
    S += "  violating pair under " + bindingStr(PairBinding) +
         ": iteration " + tupleStr(SrcIter) + " depends-before " +
         tupleStr(DstIter) + ", transformed positions " +
         std::to_string(SrcPosT) + " and " + std::to_string(DstPosT) + "\n";
  return S;
}

ErrorOr<std::string> irlt::witness::scriptForSequence(
    const TransformSequence &Seq) {
  std::string Out;
  auto line = [&Out](const std::string &L) { Out += L + "\n"; };
  auto sizeToken = [](const ExprRef &E, std::string &Tok) {
    if (std::optional<int64_t> V = E->constValue()) {
      Tok = std::to_string(*V);
      return true;
    }
    // The script grammar accepts bare symbolic names for sizes.
    if (E->kind() == Expr::Kind::Var) {
      Tok = E->str();
      return true;
    }
    return false;
  };

  for (const TemplateRef &Step : Seq.steps()) {
    if (const auto *RP = dyn_cast<ReversePermuteTemplate>(Step.get())) {
      // RP(rev, perm) reverses first, then permutes: emit the reversals,
      // then one permute directive. reduced() fuses them back into a
      // single ReversePermute with identical semantics.
      for (unsigned K = 0; K < RP->rev().size(); ++K)
        if (RP->rev()[K])
          line("reverse " + std::to_string(K + 1));
      bool Identity = true;
      for (unsigned K = 0; K < RP->perm().size(); ++K)
        Identity = Identity && RP->perm()[K] == K;
      if (!Identity) {
        std::string L = "permute";
        for (unsigned P : RP->perm())
          L += " " + std::to_string(P + 1);
        line(L);
      }
    } else if (const auto *U = dyn_cast<UnimodularTemplate>(Step.get())) {
      const UnimodularMatrix &M = U->matrix();
      std::string L = "unimodular";
      for (unsigned R = 0; R < M.size(); ++R) {
        if (R)
          L += " /";
        for (unsigned Col = 0; Col < M.size(); ++Col)
          L += " " + std::to_string(M.at(R, Col));
      }
      line(L);
    } else if (const auto *P = dyn_cast<ParallelizeTemplate>(Step.get())) {
      std::string L = "parallelize";
      bool Any = false;
      for (unsigned K = 0; K < P->parFlag().size(); ++K)
        if (P->parFlag()[K]) {
          L += " " + std::to_string(K + 1);
          Any = true;
        }
      if (Any)
        line(L);
    } else if (const auto *B = dyn_cast<BlockTemplate>(Step.get())) {
      std::string L = "block " + std::to_string(B->rangeBegin()) + " " +
                      std::to_string(B->rangeEnd());
      for (const ExprRef &E : B->bsize()) {
        std::string Tok;
        if (!sizeToken(E, Tok))
          return Failure("cannot serialize Block size expression '" +
                         E->str() + "' as a script token");
        L += " " + Tok;
      }
      line(L);
    } else if (const auto *Co = dyn_cast<CoalesceTemplate>(Step.get())) {
      line("coalesce " + std::to_string(Co->rangeBegin()) + " " +
           std::to_string(Co->rangeEnd()));
    } else if (const auto *IL = dyn_cast<InterleaveTemplate>(Step.get())) {
      std::string L = "interleave " + std::to_string(IL->rangeBegin()) +
                      " " + std::to_string(IL->rangeEnd());
      for (const ExprRef &E : IL->isize()) {
        std::string Tok;
        if (!sizeToken(E, Tok))
          return Failure("cannot serialize Interleave size expression '" +
                         E->str() + "' as a script token");
        L += " " + Tok;
      }
      line(L);
    } else if (const auto *SM = dyn_cast<StripMineTemplate>(Step.get())) {
      std::string Tok;
      if (!sizeToken(SM->size(), Tok))
        return Failure("cannot serialize StripMine size expression '" +
                       SM->size()->str() + "' as a script token");
      line("stripmine " + std::to_string(SM->position()) + " " + Tok);
    } else {
      return Failure("no script directive for template " + Step->str());
    }
  }
  return Out;
}
