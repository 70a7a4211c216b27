//===- search/Search.cpp - Cost-model-guided transformation search --------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "search/Search.h"

#include "analysis/Analysis.h"
#include "support/MathUtils.h"
#include "transform/Templates.h"
#include "transform/TypeState.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

using namespace irlt;
using namespace irlt::search;

namespace {

/// One node of the beam: a transformation prefix that survived the fast
/// legality pruning, carried entirely in mapped form (type state and
/// dependence set) - the nest itself is never touched during expansion,
/// exactly the paper's Section 4.3 efficiency argument.
struct BeamState {
  TransformSequence Seq;
  /// reduce()-canonical rendering: the dedup and tie-break key.
  std::string Key;
  NestTypeState Types;
  DepSet Deps;
  unsigned OutN = 0;
  /// Leaf cost of this prefix; ranks the beam.
  double Cost = 0.0;
};

/// Worker count actually worth spawning: a CPU-bound deterministic
/// workload cannot gain from oversubscription, and the measured
/// BM_SearchMatmulDepth2Threads inversion on a 1-CPU host was exactly
/// 4 threads time-slicing one core plus allocator contention. Requests
/// beyond the hardware are clamped; the determinism contract makes this
/// unobservable in the results.
unsigned effectiveThreads(unsigned Requested) {
  unsigned HW = std::thread::hardware_concurrency();
  if (HW == 0) // unknown: trust the caller
    return Requested;
  return std::min(Requested, HW);
}

/// Deterministic work distribution: workers pull indices from an atomic
/// counter but only ever write to their own index's slot, so the merged
/// result is independent of scheduling.
void parallelFor(size_t Count, unsigned Threads,
                 const std::function<void(size_t)> &Fn) {
  if (Threads <= 1 || Count <= 1) {
    for (size_t I = 0; I < Count; ++I)
      Fn(I);
    return;
  }
  std::atomic<size_t> Next{0};
  size_t NumWorkers = std::min<size_t>(Threads, Count);
  std::vector<std::thread> Workers;
  Workers.reserve(NumWorkers);
  for (size_t W = 0; W < NumWorkers; ++W)
    Workers.emplace_back([&] {
      for (size_t I = Next.fetch_add(1); I < Count; I = Next.fetch_add(1))
        Fn(I);
    });
  for (std::thread &T : Workers)
    T.join();
}

/// Greedy outside-in parallelization on the mapped dependence set
/// (AutoPar's chooser), or the innermost-only variant for vectorization.
std::vector<bool> chooseFlags(const DepSet &Mapped, unsigned OutN,
                              ParMode Mode) {
  std::vector<bool> Flags(OutN, false);
  if (OutN == 0)
    return Flags;
  if (Mode == ParMode::InnermostOnly) {
    Flags[OutN - 1] = true;
    if (!makeParallelize(OutN, Flags)
             ->mapDependences(Mapped)
             .allLexNonNegative())
      Flags[OutN - 1] = false;
    return Flags;
  }
  for (unsigned K = 0; K < OutN; ++K) {
    Flags[K] = true;
    if (!makeParallelize(OutN, Flags)
             ->mapDependences(Mapped)
             .allLexNonNegative())
      Flags[K] = false;
  }
  return Flags;
}

/// AutoPar's lexicographic score: parallel loops first, outer positions
/// worth more, +1 when the base machinery is cheap (Section 4.2).
long parScoreOf(const std::vector<unsigned> &ParallelLoops, unsigned OutN,
                bool CheapBase) {
  long S = 0;
  for (unsigned P : ParallelLoops)
    S += 1000 + 10 * static_cast<long>(OutN - P);
  if (CheapBase)
    S += 1;
  return S;
}

/// Outcome of finishing one state into a reportable candidate.
struct LeafEval {
  /// The state stays in the beam (its cost is meaningful).
  bool StateAlive = false;
  double StateCost = 0.0;
  /// The analyzer pre-filter rejected the finished candidate before it
  /// could be submitted to the full legality test.
  bool AnalyzerPruned = false;
  /// A finished candidate was submitted to the full legality test.
  bool Submitted = false;
  /// ... and confirmed legal.
  bool Legal = false;
  ScoredSequence Cand;
};

LeafEval finishState(const BeamState &St, const LoopNest &Nest, const DepSet &D,
                     const SearchOptions &Opts, CostModel *CM,
                     legality::IncrementalEngine &Legality) {
  LeafEval E;

  // A trailing Parallelize, chosen greedily against the final mapped
  // dependence set - never enumerated as a search step.
  std::vector<bool> Flags(St.OutN, false);
  if (Opts.Obj != Objective::Locality)
    Flags = chooseFlags(St.Deps, St.OutN, Opts.Par);
  std::vector<unsigned> ParallelLoops;
  for (unsigned K = 0; K < St.OutN; ++K)
    if (Flags[K])
      ParallelLoops.push_back(K);

  bool CheapBase = true;
  for (const TemplateRef &T : St.Seq.steps())
    CheapBase &= T->kind() == TransformTemplate::Kind::ReversePermute;
  long Score =
      ParallelLoops.empty() ? 0 : parScoreOf(ParallelLoops, St.OutN, CheapBase);

  double Miss = -1.0;
  if (Opts.Obj != Objective::Parallelism) {
    // Parallelize does not change the sequential trace, so the prefix's
    // canonical key shares the measurement with the finished leaf.
    std::optional<double> M = CM->missRatio(St.Seq, St.Key);
    if (!M)
      return E; // unmeasurable: drop the state entirely
    Miss = *M;
  }

  switch (Opts.Obj) {
  case Objective::Locality:
    E.StateCost = Miss;
    break;
  case Objective::Parallelism:
    E.StateCost = -static_cast<double>(Score);
    break;
  case Objective::Both:
    E.StateCost = Miss - 1e-4 * static_cast<double>(Score);
    break;
  }
  E.StateAlive = true;

  // A parallelism-objective leaf with nothing parallel is not an answer
  // (mirrors AutoPar returning no candidate), but the prefix may still be
  // worth expanding.
  if (Opts.Obj == Objective::Parallelism && ParallelLoops.empty())
    return E;

  // Analyzer pre-filter (docs/ANALYSIS.md): the fast pruning already
  // validated this prefix's per-stage preconditions, so the only verdict
  // the full test can add is the final lexicographic check (rule E100).
  // Running it directly on the final mapped set skips the whole legality
  // walk for candidates that are certain to be rejected. Overflow falls
  // through to the walk, which classifies it properly.
  {
    OverflowGuard Guard;
    DepSet Final = ParallelLoops.empty()
                       ? St.Deps
                       : makeParallelize(St.OutN, Flags)
                             ->mapDependences(St.Deps);
    if (!Guard.triggered() && analysis::finalDepsRejectable(Final)) {
      E.AnalyzerPruned = true;
      return E;
    }
  }

  TransformSequence LeafSeq = St.Seq;
  if (!ParallelLoops.empty())
    LeafSeq.append(makeParallelize(St.OutN, Flags));

  E.Submitted = true;
  // Leaves are re-confirmed with the *full* uniform legality test: the
  // fast path pruned on types only, and the lexicographic test never ran
  // on intermediate stages. The caller's prefix-memoized engine
  // (legality/IncrementalEngine.h) runs it, so leaves sharing a prefix -
  // the common case in a beam, including across worker threads - pay
  // only the trailing Parallelize stage plus the final lexicographic
  // test.
  LegalityResult L = Legality.check(LeafSeq, Nest, D, legality::Mode::Full);
  if (!L.Legal)
    return E;
  E.Legal = true;
  E.Cand.Key = LeafSeq.reduced().str();
  E.Cand.Seq = std::move(LeafSeq);
  E.Cand.Cost = E.StateCost;
  E.Cand.MissRatio = Miss;
  E.Cand.ParScore = Score;
  E.Cand.ParallelLoops = std::move(ParallelLoops);
  return E;
}

bool candidateLess(const ScoredSequence &A, const ScoredSequence &B) {
  if (A.Cost != B.Cost)
    return A.Cost < B.Cost;
  return A.Key < B.Key;
}

} // namespace

SearchResult
irlt::search::searchTransformations(const LoopNest &Nest, const DepSet &D,
                                    const SearchOptions &Opts,
                                    legality::IncrementalEngine &Legality) {
  SearchResult R;
  unsigned N = Nest.numLoops();
  if (N == 0)
    return R;

  // Once cancellation fires, every later work unit returns at once and
  // the search reports Cancelled at its next merge point.
  std::atomic<bool> Stopped{false};
  auto cancelled = [&] {
    if (Stopped.load(std::memory_order_relaxed))
      return true;
    if (!Opts.Cancelled || !Opts.Cancelled())
      return false;
    Stopped.store(true, std::memory_order_relaxed);
    return true;
  };
  auto cancel = [] {
    SearchResult C;
    C.Cancelled = true;
    return C;
  };

  std::unique_ptr<CostModel> CM;
  if (Opts.Obj != Objective::Parallelism) {
    CostModelOptions CO;
    CO.Params = Opts.CostParams;
    CO.Cache = Opts.Cache;
    CO.MaxInstances = Opts.MaxTraceInstances;
    CM = std::make_unique<CostModel>(Nest, std::move(CO));
    if (!CM->unusableReason().empty()) {
      R.Error = CM->unusableReason();
      return R;
    }
    if (cancelled())
      return cancel();
    if (!CM->baseline()) {
      R.Error = "cost model cannot execute the source nest under the "
                "chosen parameter bindings";
      return R;
    }
  }

  SearchStats &S = R.Stats;
  std::vector<ScoredSequence> All;
  const unsigned Threads = effectiveThreads(Opts.Threads);

  // Evaluates every state's leaf in parallel (per-index slots), then
  // merges stats and candidates in index order; returns the per-state
  // evaluations so the caller can filter/rank the beam.
  auto finishAll = [&](const std::vector<BeamState> &States) {
    std::vector<LeafEval> Evals(States.size());
    parallelFor(States.size(), Threads, [&](size_t I) {
      if (!cancelled()) // before the leaf's measurement
        Evals[I] = finishState(States[I], Nest, D, Opts, CM.get(), Legality);
    });
    for (LeafEval &E : Evals) {
      if (E.AnalyzerPruned)
        ++S.AnalyzerPruned;
      if (!E.Submitted)
        continue;
      ++S.Leaves;
      if (E.Legal) {
        ++S.Legal;
        All.push_back(std::move(E.Cand));
      }
    }
    return Evals;
  };

  BeamState Root;
  Root.Key = Root.Seq.str();
  Root.Types = NestTypeState::fromNest(Nest);
  Root.Deps = D;
  Root.OutN = N;
  S.Enumerated = 1;

  std::vector<BeamState> Frontier;
  {
    std::vector<BeamState> RootVec;
    RootVec.push_back(std::move(Root));
    std::vector<LeafEval> Evals = finishAll(RootVec);
    if (Stopped)
      return cancel();
    RootVec[0].Cost = Evals[0].StateCost;
    if (Evals[0].StateAlive)
      Frontier.push_back(std::move(RootVec[0]));
  }

  std::set<std::string> Visited;
  if (!Frontier.empty())
    Visited.insert(Frontier[0].Key);

  for (unsigned Level = 1; Level <= Opts.Depth && !Frontier.empty(); ++Level) {
    // Expansion: each frontier state's step candidates are pruned with
    // the fast path - type-state propagation (stage bounds preconditions
    // on types alone) plus the anchor-dependence side condition on the
    // *current* mapped set. The lexicographic test is deliberately
    // absent here: intermediate stages need not be legal.
    //
    // The work unit is one (frontier state, candidate) pair, not one
    // frontier state: a frontier of beam-width states expands to
    // hundreds of prefix extensions whose costs vary wildly (a pruned
    // type check is microseconds, a surviving reduce() is not), and
    // whole-state units left workers idle behind the one state with the
    // expensive extensions. The atomic-counter loop in parallelFor
    // steals pairs instead, and the per-pair slot keeps the merge order
    // - state-major, then candidate order - byte-identical to the
    // serial walk. Candidate lists depend only on the loop count, so
    // one list per distinct width is enumerated up front and shared
    // read-only by all workers.
    std::map<unsigned, std::vector<TemplateRef>> CandsByN;
    for (const BeamState &St : Frontier)
      if (!CandsByN.count(St.OutN))
        CandsByN.emplace(St.OutN, stepCandidates(St.OutN, Opts.Candidates));
    std::vector<size_t> Offset(Frontier.size() + 1, 0);
    for (size_t I = 0; I < Frontier.size(); ++I)
      Offset[I + 1] = Offset[I] + CandsByN.at(Frontier[I].OutN).size();

    // One slot per pair: engaged iff the extension survived the pruning.
    std::vector<std::optional<BeamState>> PairSlots(Offset.back());
    parallelFor(Offset.back(), Threads, [&](size_t P) {
      size_t I = static_cast<size_t>(
          std::upper_bound(Offset.begin(), Offset.end(), P) - Offset.begin() -
          1);
      const BeamState &St = Frontier[I];
      const TemplateRef &T = CandsByN.at(St.OutN)[P - Offset[I]];
      if (cancelled())
        return;
      OverflowGuard Guard;
      std::optional<ErrorOr<NestTypeState>> MT = mapTypes(*T, St.Types);
      if (Guard.triggered() || !MT || !*MT)
        return;
      std::string AnchorErr = checkAnchorDependence(*T, St.Types, St.Deps);
      if (Guard.triggered() || !AnchorErr.empty())
        return;
      DepSet Mapped = T->mapDependences(St.Deps);
      if (Guard.triggered())
        return;
      BeamState NS;
      NS.Seq = St.Seq;
      NS.Seq.append(T);
      NS.Key = NS.Seq.reduced().str();
      if (Guard.triggered()) // reduce() multiplies matrices
        return;
      NS.Types = MT->take();
      NS.Deps = std::move(Mapped);
      NS.OutN = T->outputSize();
      PairSlots[P] = std::move(NS);
    });
    if (Stopped)
      return cancel();

    // Deterministic merge in (frontier, candidate) order; peephole-
    // equivalent states (same canonical key, at this or any earlier
    // level) collapse to the first occurrence.
    std::vector<BeamState> Fresh;
    for (size_t I = 0; I < Frontier.size(); ++I) {
      S.Enumerated += Offset[I + 1] - Offset[I];
      for (size_t P = Offset[I]; P < Offset[I + 1]; ++P) {
        if (!PairSlots[P]) {
          ++S.Pruned;
          continue;
        }
        BeamState &NS = *PairSlots[P];
        if (!Visited.insert(NS.Key).second) {
          ++S.Deduped;
          continue;
        }
        Fresh.push_back(std::move(NS));
      }
    }

    // Finish every fresh state (cost + leaf confirmation), then keep the
    // best Beam of them as the next frontier.
    std::vector<LeafEval> Evals = finishAll(Fresh);
    if (Stopped)
      return cancel();
    std::vector<BeamState> Next;
    for (size_t I = 0; I < Fresh.size(); ++I) {
      if (!Evals[I].StateAlive)
        continue;
      Fresh[I].Cost = Evals[I].StateCost;
      Next.push_back(std::move(Fresh[I]));
    }
    std::sort(Next.begin(), Next.end(),
              [](const BeamState &A, const BeamState &B) {
                if (A.Cost != B.Cost)
                  return A.Cost < B.Cost;
                return A.Key < B.Key;
              });
    if (Next.size() > Opts.Beam)
      Next.resize(Opts.Beam);
    Frontier = std::move(Next);
  }

  std::sort(All.begin(), All.end(), candidateLess);
  All.erase(std::unique(All.begin(), All.end(),
                        [](const ScoredSequence &A, const ScoredSequence &B) {
                          return A.Key == B.Key;
                        }),
            All.end());
  if (All.size() > Opts.TopK)
    All.resize(Opts.TopK);
  R.Top = std::move(All);
  if (!R.Top.empty())
    R.Best = R.Top.front();
  return R;
}
