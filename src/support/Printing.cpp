//===- support/Printing.cpp - String formatting helpers ------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "support/Printing.h"

#include <cstdio>
#include <fstream>
#include <sstream>

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

bool irlt::parseBindings(std::string_view Spec,
                         std::map<std::string, int64_t> &Out) {
  const uint64_t Limit = UINT64_C(1) << 63; // |INT64_MIN|
  while (!Spec.empty()) {
    size_t Comma = Spec.find(',');
    std::string_view Item = Spec.substr(0, Comma);
    Spec = Comma == std::string_view::npos ? "" : Spec.substr(Comma + 1);
    size_t Eq = Item.find('=');
    if (Eq == std::string_view::npos || Eq == 0)
      return false;
    std::string_view Val = Item.substr(Eq + 1);
    bool Neg = !Val.empty() && Val[0] == '-';
    uint64_t Mag = 0;
    if (!parseU64(Val.substr(Neg ? 1 : 0), Mag) || Mag > Limit ||
        (!Neg && Mag == Limit))
      return false;
    // Negate in unsigned arithmetic: -Limit is INT64_MIN, which no
    // positive int64 can be negated into.
    Out[std::string(Item.substr(0, Eq))] =
        static_cast<int64_t>(Neg ? 0 - Mag : Mag);
  }
  return true;
}

bool irlt::parseValidateSpec(std::string_view S, ValidateSpec &Out) {
  ValidateSpec V;
  bool HasBudget = !S.empty();
  if (S.substr(0, 6) == "native") {
    V.Native = true;
    S.remove_prefix(6);
    HasBudget = !S.empty();
    if (HasBudget && S[0] != ':')
      return false;
    S = S.substr(HasBudget ? 1 : 0);
  }
  if (HasBudget && (!parseU64(S, V.Budget) || V.Budget == 0))
    return false;
  Out = V;
  return true;
}

bool irlt::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool ArgCursor::next() {
  if (++I >= Argc)
    return false;
  Arg = Argv[I];
  return true;
}

bool ArgCursor::value(std::string &Out) {
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "error: %s needs an argument\n", Arg.c_str());
    return false;
  }
  Out = Argv[++I];
  return true;
}

bool ArgCursor::number64(uint64_t &Out, uint64_t Lo, uint64_t Hi) {
  std::string V;
  if (!value(V))
    return false;
  if (parseU64(V, Out) && Out >= Lo && Out <= Hi)
    return true;
  if (Hi == UINT64_MAX)
    std::fprintf(stderr, "error: %s expects a %s integer\n", Arg.c_str(),
                 Lo ? "positive" : "non-negative");
  else
    std::fprintf(stderr, "error: %s expects %llu..%llu\n", Arg.c_str(),
                 static_cast<unsigned long long>(Lo),
                 static_cast<unsigned long long>(Hi));
  return false;
}

void IndentedWriter::line(const std::string &Text) {
  Buffer.append(static_cast<size_t>(Level) * IndentWidth, ' ');
  Buffer += Text;
  Buffer += '\n';
}
