//===- Json.h - Minimal JSON reader -----------------------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal recursive-descent JSON reader — just enough to parse back
/// what this repository's own sinks emit (registry snapshots, Chrome
/// trace_event output, flight-recorder bundles, BENCH_perf.json).
/// Header-only so the analysis tool and the tests share one parser.
/// Not a general-purpose JSON library: no \uXXXX escapes, no surrogate
/// pairs, duplicate keys keep the first value.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_SUPPORT_JSON_H
#define CFED_SUPPORT_JSON_H

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace cfed {
namespace json {

struct JsonValue {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  /// Number: the literal as written. Num rounds through double, which
  /// loses integers above 2^53; readUnsigned() reads this text exactly.
  std::string Literal;
  std::vector<JsonValue> Items;
  std::map<std::string, JsonValue> Fields;

  /// Object member access; returns a shared Null value when absent.
  const JsonValue &operator[](const std::string &Name) const {
    static const JsonValue Missing;
    auto It = Fields.find(Name);
    return It == Fields.end() ? Missing : It->second;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  /// Parses the whole input as one value; trailing garbage fails.
  bool parse(JsonValue &Out) {
    return value(Out) && (skipWs(), Pos == Text.size());
  }

private:
  const std::string &Text;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\n' ||
                                 Text[Pos] == '\r' || Text[Pos] == '\t'))
      ++Pos;
  }
  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool stringLit(std::string &Out) {
    skipWs();
    if (Pos >= Text.size() || Text[Pos] != '"')
      return false;
    ++Pos;
    Out.clear();
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C == '\\' && Pos < Text.size()) {
        char E = Text[Pos++];
        switch (E) {
        case 'n': Out += '\n'; break;
        case 't': Out += '\t'; break;
        case 'r': Out += '\r'; break;
        case '"': Out += '"'; break;
        case '\\': Out += '\\'; break;
        default: Out += E; break;
        }
      } else
        Out += C;
    }
    return Pos < Text.size() && Text[Pos++] == '"';
  }
  bool value(JsonValue &Out) {
    skipWs();
    if (Pos >= Text.size())
      return false;
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out.K = JsonValue::Object;
      skipWs();
      if (consume('}'))
        return true;
      do {
        std::string Key;
        JsonValue Val;
        if (!stringLit(Key) || !consume(':') || !value(Val))
          return false;
        Out.Fields.emplace(std::move(Key), std::move(Val));
      } while (consume(','));
      return consume('}');
    }
    if (C == '[') {
      ++Pos;
      Out.K = JsonValue::Array;
      skipWs();
      if (consume(']'))
        return true;
      do {
        JsonValue Val;
        if (!value(Val))
          return false;
        Out.Items.push_back(std::move(Val));
      } while (consume(','));
      return consume(']');
    }
    if (C == '"') {
      Out.K = JsonValue::String;
      return stringLit(Out.Str);
    }
    if (Text.compare(Pos, 4, "true") == 0) {
      Out.K = JsonValue::Bool;
      Out.B = true;
      Pos += 4;
      return true;
    }
    if (Text.compare(Pos, 5, "false") == 0) {
      Out.K = JsonValue::Bool;
      Pos += 5;
      return true;
    }
    if (Text.compare(Pos, 4, "null") == 0) {
      Pos += 4;
      return true;
    }
    size_t End = Pos;
    while (End < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[End])) ||
            Text[End] == '-' || Text[End] == '+' || Text[End] == '.' ||
            Text[End] == 'e' || Text[End] == 'E'))
      ++End;
    if (End == Pos)
      return false;
    Out.K = JsonValue::Number;
    Out.Literal = Text.substr(Pos, End - Pos);
    Out.Num = std::strtod(Out.Literal.c_str(), nullptr);
    Pos = End;
    return true;
  }
};

/// Reads \p V exactly as an unsigned integer no greater than \p Max.
/// Only a number written as plain decimal digits qualifies: a negative,
/// fractional, exponent-form or overflowing literal fails, as does any
/// value that is not a number.
inline bool readUnsigned(const JsonValue &V, uint64_t &Out,
                         uint64_t Max = UINT64_MAX) {
  if (V.K != JsonValue::Number || V.Literal.empty())
    return false;
  uint64_t Value = 0;
  for (char C : V.Literal) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (Digit > Max || Value > (Max - Digit) / 10)
      return false;
    Value = Value * 10 + Digit;
  }
  Out = Value;
  return true;
}

} // namespace json
} // namespace cfed

#endif // CFED_SUPPORT_JSON_H
