//===- ir/NestHash.h - Canonical structural nest fingerprints ------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A canonical structural fingerprint for loop nests. It keys the
/// api::Pipeline dependence cache, the serve journal (which persists it
/// and drops an entry whose recomputed key differs) and the front's
/// shard routing (FNV-1a of the key), so its bytes are a compatibility
/// contract, pinned by tests/data/ir/nest_keys.golden. The legality
/// engine does not use it: its verdicts name the nest's own variables,
/// so it keys on the nest as written (LoopNest::structuralHash()).
///
/// Two nests get the same fingerprint when they are structurally
/// equivalent up to
///
///  - *alpha-renaming of index variables*: loop index variables (and the
///    body index variables they shadow) are renamed to positional names,
///    so `do i = 1, n` and `do x = 1, n` agree; free symbolic parameters
///    (n, m, b) keep their names - binding them differently is a
///    semantic difference;
///  - *reordered-but-equivalent bound terms*: every bound, step,
///    subscript, and right-hand-side expression is canonicalized through
///    the LinExpr linear form (like terms merged, constants folded,
///    terms sorted), and commutative opaque operators (min, max, and
///    non-constant products) sort their operands - so `i + 1` and
///    `1 + i`, or `min(n, m)` and `min(m, n)`, agree.
///
/// The fingerprint is *conservative*: everything the dependence analyzer
/// or the legality test can observe (loop kinds, steps, array names,
/// statement order, init statements) is part of the key, so a fingerprint
/// collision between semantically different nests cannot happen short of
/// a 64-bit hash collision - and cache consumers that key on the full
/// fingerprint string (as api::Pipeline does) are immune even to that.
/// Coefficient arithmetic follows the OverflowGuard policy: a key built
/// through saturated arithmetic trips the guard, and callers treat it as
/// no key at all.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_IR_NESTHASH_H
#define IRLT_IR_NESTHASH_H

#include "ir/LoopNest.h"

#include <cstdint>
#include <string>

namespace irlt {

/// The canonical fingerprint string of \p Nest. Deterministic across
/// runs and platforms; equal for alpha-renamed / bound-term-reordered
/// variants of the same nest, distinct for structurally different nests.
std::string canonicalNestKey(const LoopNest &Nest);

/// FNV-1a (64-bit) of canonicalNestKey(). A compact digest for metrics
/// and logs; cache keys should prefer the full string.
uint64_t structuralNestHash(const LoopNest &Nest);

} // namespace irlt

#endif // IRLT_IR_NESTHASH_H
