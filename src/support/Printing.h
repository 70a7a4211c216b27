//===- support/Printing.h - String formatting helpers --------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string utilities: printf-style formatting into std::string,
/// joining ranges, an indentation-tracking text writer used by the
/// loop-nest printers, and the tools' command-line helpers (the strict
/// decimal parser, the argument cursor, the binding and --validate spec
/// grammars, and readFile).
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SUPPORT_PRINTING_H
#define IRLT_SUPPORT_PRINTING_H

#include <cstdarg>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace irlt {

/// printf-style formatting into a std::string.
std::string formatStr(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins the elements of \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Strict decimal parse of a command-line number: false on an empty
/// string, a non-digit (sign and whitespace included) or a value past
/// UINT64_MAX, leaving \p Out untouched.
bool parseU64(std::string_view S, uint64_t &Out);

/// Parses a comma-separated binding spec "n=32,b=4": each item is a
/// non-empty name, '=', an optional '-' and decimal digits in the int64
/// range. Bindings are added to \p Out (overriding per name); false on
/// the first malformed item.
bool parseBindings(std::string_view Spec, std::map<std::string, int64_t> &Out);

/// A `--validate=` spec: "[N|native[:N]]" with N a positive decimal.
struct ValidateSpec {
  bool Native = false;
  /// The instance budget; 0 keeps the tier's preset.
  uint64_t Budget = 0;
};
bool parseValidateSpec(std::string_view S, ValidateSpec &Out);

/// Reads the whole file at \p Path into \p Out; false when it cannot be
/// opened.
bool readFile(const std::string &Path, std::string &Out);

/// Walks a tool's argv. Every failed read prints exactly one
/// "error: FLAG ..." line to stderr, so the tools share their
/// missing-argument and bad-number diagnostics.
class ArgCursor {
public:
  ArgCursor(int Argc, char **Argv) : Argc(Argc), Argv(Argv) {}

  /// Steps to the next argument; false past the last one.
  bool next();
  /// The current argument (the flag whose value the reads below take).
  const std::string &arg() const { return Arg; }

  /// Takes the argument after the flag into \p Out.
  bool value(std::string &Out);
  /// Takes the argument after the flag as a decimal in [Lo, Hi].
  template <typename T>
  bool number(T &Out, uint64_t Lo = 0,
              uint64_t Hi = std::numeric_limits<T>::max()) {
    uint64_t V = 0;
    if (!number64(V, Lo, Hi))
      return false;
    Out = static_cast<T>(V);
    return true;
  }

private:
  bool number64(uint64_t &Out, uint64_t Lo, uint64_t Hi);

  int Argc;
  char **Argv;
  int I = 0;
  std::string Arg;
};

/// A line-oriented text writer that tracks the current indentation level.
/// Used by the loop-nest printer to emit nested `do`/`enddo` blocks.
class IndentedWriter {
public:
  explicit IndentedWriter(unsigned IndentWidth = 2)
      : IndentWidth(IndentWidth) {}

  /// Emits one line at the current indentation level.
  void line(const std::string &Text);

  /// Emits an empty line.
  void blank() { Buffer += '\n'; }

  void indent() { ++Level; }
  void outdent() {
    if (Level > 0)
      --Level;
  }

  const std::string &str() const { return Buffer; }

private:
  std::string Buffer;
  unsigned IndentWidth;
  unsigned Level = 0;
};

} // namespace irlt

#endif // IRLT_SUPPORT_PRINTING_H
