//===- Format.cpp - printf-style formatting into std::string -------------===//

#include "support/Format.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

using namespace cfed;

std::string cfed::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Size = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Size < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Result(static_cast<size_t>(Size), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::string cfed::formatDoubleExact(double V) {
  char Buf[32]; // The longest shortest form, "-2.2250738585072014e-308", is 24.
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}
