//===- fuzz/NestGen.cpp - Random loop-nest generation ---------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "fuzz/NestGen.h"

using namespace irlt;
using namespace irlt::fuzz;

static const char *VarNames[] = {"i", "j", "k", "l"};

/// 2^62: large enough that skewing or blocking coefficients derived from
/// it leave the int64 range, small enough to render as a plain literal.
static const char *HugeBound = "4611686018427387904";

std::string NestSpec::render() const {
  std::string Src;
  std::string Subs;
  for (unsigned K = 0; K < depth(); ++K) {
    const LoopSpec &L = Loops[K];
    Src += std::string(2 * K, ' ') + "do " + L.Var + " = " + L.Lo + ", " +
           L.Hi;
    if (L.Step != 1)
      Src += ", " + std::to_string(L.Step);
    Src += "\n";
    Subs += (K ? ", " : "") + L.Var;
  }
  std::string Indent(2 * depth(), ' ');
  std::string Rhs = "a(" + Subs + ")";
  for (const ReadSpec &Read : Reads) {
    std::string Ref;
    for (unsigned K = 0; K < depth(); ++K) {
      std::string Term = Loops[K].Var;
      int64_t Off = K < Read.Off.size() ? Read.Off[K] : 0;
      if (Off > 0)
        Term += " + " + std::to_string(Off);
      if (Off < 0)
        Term += " - " + std::to_string(-Off);
      Ref += (K ? ", " : "") + Term;
    }
    Rhs += " + a(" + Ref + ")";
  }
  Src += Indent + "a(" + Subs + ") = " + Rhs + "\n";
  if (SecondStmt)
    Src += Indent + "c(" + Subs + ") = a(" + Subs + ") + 3\n";
  for (unsigned K = depth(); K-- > 0;)
    Src += std::string(2 * K, ' ') + "enddo\n";
  return Src;
}

bool irlt::fuzz::isTriangular(const NestSpec &Spec) {
  for (const LoopSpec &L : Spec.Loops)
    for (const LoopSpec &Outer : Spec.Loops)
      if (L.Lo.find(Outer.Var) != std::string::npos ||
          L.Hi.find(Outer.Var) != std::string::npos)
        return true;
  return false;
}

NestSpec irlt::fuzz::generateNest(Rng &R, const NestGenOptions &Opts) {
  NestSpec Spec;
  unsigned MaxDepth = Opts.MaxDepth ? Opts.MaxDepth : 1;
  if (MaxDepth > 4)
    MaxDepth = 4;
  unsigned Depth = 1 + static_cast<unsigned>(R.below(MaxDepth));

  for (unsigned K = 0; K < Depth; ++K) {
    LoopSpec L;
    L.Var = VarNames[K];

    // Lower bound: mostly 1, sometimes a small constant, a parameter, or
    // (inner loops only) a triangular reference to an outer variable.
    uint64_t LoPick = R.below(100);
    if (LoPick < 55)
      L.Lo = "1";
    else if (LoPick < 70)
      L.Lo = std::to_string(R.range(0, 3));
    else if (LoPick < 80)
      L.Lo = "m";
    else if (K > 0) {
      L.Lo = Spec.Loops[R.below(K)].Var;
      if (R.flip())
        L.Lo += " + 1";
    } else {
      L.Lo = "1";
    }

    // Upper bound: mostly the parameter n, sometimes m, a constant, or a
    // triangular reference.
    uint64_t HiPick = R.below(100);
    if (HiPick < 55)
      L.Hi = "n";
    else if (HiPick < 70)
      L.Hi = "m";
    else if (HiPick < 85 || K == 0)
      L.Hi = std::to_string(R.range(5, 12));
    else
      L.Hi = Spec.Loops[R.below(K)].Var;

    // Constant positive step, usually 1.
    L.Step = R.percent(80) ? 1 : R.range(2, 3);

    Spec.Loops.push_back(std::move(L));
  }

  if (Opts.OverflowMode) {
    // Rectangular loop with a 2^62 extent: any skew or blocking
    // coefficient folded against it must overflow-reject, not wrap.
    LoopSpec &L = Spec.Loops[R.below(Depth)];
    L.Lo = "1";
    L.Hi = HugeBound;
    L.Step = 1;
  }

  // 1-3 reads at lexicographically non-negative dependence offsets: the
  // leading nonzero offset is negative, so the source iteration precedes
  // the reading one.
  unsigned NumReads = 1 + static_cast<unsigned>(R.below(3));
  for (unsigned T = 0; T < NumReads; ++T) {
    ReadSpec Read;
    Read.Off.assign(Depth, 0);
    if (!R.percent(20)) { // 20%: same-instance read (zero offsets)
      unsigned Lead = static_cast<unsigned>(R.below(Depth));
      for (unsigned K = 0; K < Depth; ++K) {
        if (K == Lead)
          Read.Off[K] = -R.range(1, 2);
        else if (K > Lead)
          Read.Off[K] = R.range(-1, 1);
      }
    }
    Spec.Reads.push_back(std::move(Read));
  }

  Spec.SecondStmt = R.percent(25);
  return Spec;
}

NestSpec irlt::fuzz::generateColdNest(Rng &R) {
  NestGenOptions NO;
  NO.MaxDepth = 3;
  NestSpec Spec = generateNest(R, NO);
  while (Spec.depth() >= 3 && isTriangular(Spec))
    Spec = generateNest(R, NO);
  return Spec;
}
