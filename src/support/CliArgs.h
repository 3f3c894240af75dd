//===- CliArgs.h - Strict command-line argument parsing ---------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared strict parsing helpers for the CLI tools (cfed-run,
/// cfed-stat). Tools keep their own option tables; these helpers make
/// the failure modes uniform: unknown options, options with missing or
/// trailing-junk values, and flags given a value they do not take all
/// produce one clear "error: ..." line on stderr and a false return the
/// tool turns into its usage text and exit code 2. Header-only.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_SUPPORT_CLIARGS_H
#define CFED_SUPPORT_CLIARGS_H

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace cfed {
namespace cli {

/// Strict full-string parse of a non-negative integer (base 0, so 0x..
/// hex and 0.. octal work). Rejects empty text, any trailing junk,
/// minus signs and overflow.
inline bool parseUint(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text[0] == '-' || Text[0] == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text.c_str(), &End, 0);
  if (errno == ERANGE || End != Text.c_str() + Text.size())
    return false;
  Out = Value;
  return true;
}

/// Strict full-string parse of a finite double.
inline bool parseDouble(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double Value = std::strtod(Text.c_str(), &End);
  if (errno == ERANGE || End != Text.c_str() + Text.size())
    return false;
  Out = Value;
  return true;
}

/// "error: unknown option '--frobnicate'". Always returns false so
/// option tables can `return unknownOption(Arg);`.
inline bool unknownOption(const std::string &Arg) {
  std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
  return false;
}

/// "error: option --campaign needs <count>, got 'abc'" (or "needs
/// <count>, got nothing" when the value is missing/empty).
inline bool badValue(const std::string &Name, const char *Expected,
                     const std::string &Text) {
  if (Text.empty())
    std::fprintf(stderr, "error: option %s needs %s, got nothing\n",
                 Name.c_str(), Expected);
  else
    std::fprintf(stderr, "error: option %s needs %s, got '%s'\n",
                 Name.c_str(), Expected, Text.c_str());
  return false;
}

/// The --jobs ceiling: far above any machine's hardware threads, far
/// below a thread count that would exhaust the process.
inline constexpr uint64_t MaxJobs = 1024;

/// Strict parse of option \p Name's job count: an integer in
/// [1, MaxJobs]; otherwise a badValue() diagnostic and false.
inline bool parseJobs(const std::string &Name, const std::string &Text,
                      unsigned &Out) {
  uint64_t Value = 0;
  if (!parseUint(Text, Value) || Value == 0 || Value > MaxJobs)
    return badValue(Name,
                    ("<count in 1.." + std::to_string(MaxJobs) + ">").c_str(),
                    Text);
  Out = static_cast<unsigned>(Value);
  return true;
}

/// "error: option --eager does not take a value".
inline bool unexpectedValue(const std::string &Name) {
  std::fprintf(stderr, "error: option %s does not take a value\n",
               Name.c_str());
  return false;
}

/// "error: unexpected extra argument 'foo'" (a second positional).
inline bool extraPositional(const std::string &Arg) {
  std::fprintf(stderr, "error: unexpected extra argument '%s'\n",
               Arg.c_str());
  return false;
}

/// One "--name" / "--name=value" argument split at the first '='.
/// Returns false for positionals (no leading "--").
struct Flag {
  std::string Name;  ///< Up to (excluding) the '='; includes the "--".
  std::string Value; ///< Text after the '='; empty when absent.
  bool HasValue = false;
};

inline bool splitFlag(const std::string &Arg, Flag &Out) {
  if (Arg.rfind("--", 0) != 0)
    return false;
  size_t Eq = Arg.find('=');
  Out.Name = Arg.substr(0, Eq);
  Out.HasValue = Eq != std::string::npos;
  Out.Value = Out.HasValue ? Arg.substr(Eq + 1) : std::string();
  return true;
}

} // namespace cli
} // namespace cfed

#endif // CFED_SUPPORT_CLIARGS_H
