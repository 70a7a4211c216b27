//===- support/Printing.cpp - String formatting helpers ------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "support/Printing.h"

#include <cstdio>

using namespace irlt;

std::string irlt::formatStr(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Len <= 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Out(static_cast<size_t>(Len), '\0');
  std::vsnprintf(Out.data(), static_cast<size_t>(Len) + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Out;
}

std::string irlt::join(const std::vector<std::string> &Parts,
                       const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

bool irlt::parseU64(std::string_view S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

void IndentedWriter::line(const std::string &Text) {
  Buffer.append(static_cast<size_t>(Level) * IndentWidth, ' ');
  Buffer += Text;
  Buffer += '\n';
}
