//===- support/Printing.h - String formatting helpers --------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string utilities: printf-style formatting into std::string,
/// joining ranges, the tools' strict decimal parser, and an
/// indentation-tracking text writer used by the loop-nest printers.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SUPPORT_PRINTING_H
#define IRLT_SUPPORT_PRINTING_H

#include <cstdarg>
#include <cstdint>
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
