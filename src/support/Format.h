//===- Format.h - printf-style formatting into std::string -----*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny printf-to-std::string helper so that library code can build
/// messages without <iostream>, and the exact double formatter of the
/// machine-readable outputs.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_SUPPORT_FORMAT_H
#define CFED_SUPPORT_FORMAT_H

#include <string>

namespace cfed {

/// Formats like std::snprintf but returns a std::string of exactly the
/// right size.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// The shortest decimal form of \p V that parses back to exactly \p V
/// (std::to_chars): 1497926 and 32455312345678 print as such, where %.6g
/// would print 1.49793e+06 and 3.24553e+13.
std::string formatDoubleExact(double V);

} // namespace cfed

#endif // CFED_SUPPORT_FORMAT_H
