//===- tests/support/PrintingTest.cpp --------------------------------------===//

#include "support/Printing.h"

#include <gtest/gtest.h>

using namespace irlt;

TEST(Printing, FormatStr) {
  EXPECT_EQ(formatStr("x=%d, s=%s", 42, "hi"), "x=42, s=hi");
  EXPECT_EQ(formatStr("%s", ""), "");
  EXPECT_EQ(formatStr("%u%%", 7u), "7%");
}

TEST(Printing, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"x"}, ", "), "x");
}

TEST(Printing, ParseU64) {
  uint64_t V = 7;
  EXPECT_FALSE(parseU64("", V));
  EXPECT_FALSE(parseU64("12a", V));
  EXPECT_FALSE(parseU64("-1", V));
  EXPECT_FALSE(parseU64("18446744073709551616", V)); // UINT64_MAX + 1
  EXPECT_EQ(V, 7u) << "a failed parse leaves the output untouched";
  EXPECT_TRUE(parseU64("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseU64("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(Printing, ParseBindings) {
  // One grammar for --verify, --params and --bind: a name, '=', an
  // optional '-' and decimal digits in the int64 range.
  std::map<std::string, int64_t> B;
  EXPECT_TRUE(parseBindings("n=-8", B));
  EXPECT_EQ(B["n"], -8);
  EXPECT_TRUE(parseBindings("n=9223372036854775807", B));
  EXPECT_EQ(B["n"], INT64_MAX);
  EXPECT_TRUE(parseBindings("n=-9223372036854775808", B));
  EXPECT_EQ(B["n"], INT64_MIN);
  EXPECT_TRUE(parseBindings("n=32,b=4", B));
  EXPECT_EQ(B["n"], 32);
  EXPECT_EQ(B["b"], 4);
  for (const char *Bad : {"n=+8", "n= 8", "n=", "=8", "n=9223372036854775808",
                          "n=-9223372036854775809", "n=8,,b=4", "n=-"})
    EXPECT_FALSE(parseBindings(Bad, B)) << Bad;
}

TEST(Printing, ParseValidateSpec) {
  ValidateSpec V;
  EXPECT_TRUE(parseValidateSpec("", V));
  EXPECT_FALSE(V.Native);
  EXPECT_EQ(V.Budget, 0u);
  EXPECT_TRUE(parseValidateSpec("native", V));
  EXPECT_TRUE(V.Native);
  EXPECT_EQ(V.Budget, 0u);
  EXPECT_TRUE(parseValidateSpec("native:2000000", V));
  EXPECT_TRUE(V.Native);
  EXPECT_EQ(V.Budget, 2000000u);
  EXPECT_TRUE(parseValidateSpec("2000000", V));
  EXPECT_FALSE(V.Native);
  EXPECT_EQ(V.Budget, 2000000u);
  for (const char *Bad : {"0", "abc", "native:", "native:0", "natives"})
    EXPECT_FALSE(parseValidateSpec(Bad, V)) << Bad;
}

TEST(Printing, IndentedWriter) {
  IndentedWriter W;
  W.line("do i = 1, n");
  W.indent();
  W.line("body");
  W.outdent();
  W.line("enddo");
  EXPECT_EQ(W.str(), "do i = 1, n\n  body\nenddo\n");
}

TEST(Printing, IndentedWriterOutdentClampsAtZero) {
  IndentedWriter W;
  W.outdent();
  W.line("x");
  EXPECT_EQ(W.str(), "x\n");
}
