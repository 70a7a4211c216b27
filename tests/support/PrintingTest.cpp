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
