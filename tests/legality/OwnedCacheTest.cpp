//===- tests/legality/OwnedCacheTest.cpp ----------------------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every legality cache has an owner - an api::Pipeline, or one search
/// call - so no library entry point reaches the process-wide engine that
/// only the request benchmark's harness still reads. Each call below must
/// leave IncrementalEngine::global()'s counters exactly where they were.
///
//===----------------------------------------------------------------------===//

#include "api/Pipeline.h"
#include "dependence/DepAnalysis.h"
#include "fuzz/Fuzzer.h"
#include "legality/IncrementalEngine.h"
#include "search/AutoPar.h"
#include "witness/Witness.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

const char *Matmul = "arrays B, C\n"
                     "do i = 1, n\n"
                     "  do j = 1, n\n"
                     "    do k = 1, n\n"
                     "      A(i, j) += B(i, k) * C(k, j)\n"
                     "    enddo\n"
                     "  enddo\n"
                     "enddo\n";

TEST(OwnedCache, LibraryEntryPointsLeaveTheGlobalEngineUntouched) {
  legality::IncrementalEngine &G = legality::IncrementalEngine::global();
  api::Pipeline P;
  ErrorOr<LoopNest> NestOr = P.loadNest(Matmul);
  ASSERT_TRUE(static_cast<bool>(NestOr)) << NestOr.message();
  LoopNest Nest = NestOr.take();
  DepSet D = analyzeDependences(Nest);
  ErrorOr<TransformSequence> SeqOr =
      P.parseScript("interchange 1 2\nreverse 2\ninterchange 1 2\n", 3);
  ASSERT_TRUE(static_cast<bool>(SeqOr)) << SeqOr.message();
  TransformSequence Seq = SeqOr.take();

  auto expectUntouched = [&](const char *What, auto &&Call) {
    legality::EngineStats Before = G.stats();
    Call();
    legality::EngineStats After = G.stats();
    EXPECT_EQ(After.Hits, Before.Hits) << What;
    EXPECT_EQ(After.Misses, Before.Misses) << What;
    EXPECT_EQ(After.Inserts, Before.Inserts) << What;
    EXPECT_EQ(After.Uncacheable, Before.Uncacheable) << What;
  };
  expectUntouched("isLegal", [&] { isLegal(Seq, Nest, D); });
  expectUntouched("isLegalFast", [&] { isLegalFast(Seq, Nest, D); });
  expectUntouched("witness::certify", [&] {
    witness::Certificate C = witness::certify(Seq, Nest, D);
    EXPECT_EQ(witness::checkCertificate(C, Seq, Nest, D), "");
  });
  expectUntouched("Pipeline::certify", [&] {
    witness::Certificate C = P.certify(Seq, Nest);
    EXPECT_EQ(P.checkCertificate(C, Seq, Nest), "");
  });
  expectUntouched("searchTransformations", [&] {
    search::SearchOptions SO;
    SO.Beam = 2;
    SO.Depth = 1;
    EXPECT_TRUE(search::searchTransformations(Nest, D, SO).Best);
  });
  expectUntouched("autoParallelize",
                  [&] { EXPECT_TRUE(autoParallelize(Nest, D).Best); });
  expectUntouched("autoVectorize",
                  [&] { EXPECT_TRUE(autoVectorize(Nest, D).Best); });
  expectUntouched("fuzz::runCase", [&] {
    fuzz::FuzzOptions FO;
    FO.Seed = 7;
    for (uint64_t I = 0; I < 8; ++I)
      fuzz::runCase(fuzz::generateCase(FO, I),
                    fuzz::DifferentialOptions::defaults());
  });
}

} // namespace
