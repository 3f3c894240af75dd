//===- JsonTest.cpp - The one JSON string escaper and its reader ---------------===//
//
// Every sink writes strings through json::appendString, and JsonParser
// must read back exactly the bytes that went in.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "telemetry/LiveExport.h"

#include <gtest/gtest.h>

using namespace cfed;

namespace {

std::string roundTrip(const std::string &S) {
  std::string Text;
  json::appendString(Text, S);
  json::JsonValue V;
  json::JsonParser Parser(Text);
  EXPECT_TRUE(Parser.parse(V)) << Text;
  EXPECT_EQ(V.K, json::JsonValue::String) << Text;
  return V.Str;
}

} // namespace

TEST(JsonTest, AppendStringRoundTripsEveryAsciiByte) {
  std::string All;
  for (int C = 0x01; C <= 0x7f; ++C)
    All += static_cast<char>(C);
  EXPECT_EQ(roundTrip(All), All);
  for (char C : All)
    EXPECT_EQ(roundTrip(std::string("a") + C + "b"),
              std::string("a") + C + "b")
        << static_cast<int>(C);

  // No raw control byte reaches the output.
  std::string Text;
  json::appendString(Text, All);
  for (char C : Text)
    EXPECT_GE(static_cast<unsigned char>(C), 0x20u);
}

TEST(JsonTest, AppendStringKeepsTheShortEscapes) {
  std::string Text;
  json::appendString(Text, "q\"b\\n\nt\tr\r\x01");
  EXPECT_EQ(Text, "\"q\\\"b\\\\n\\nt\\tr\\r\\u0001\"");
}

TEST(JsonTest, ParserRejectsMalformedAndNonAsciiUnicodeEscapes) {
  json::JsonValue V;
  for (const char *Bad : {"\"\\u00\"", "\"\\u00g1\"", "\"\\u+001\"",
                          "\"\\u00e9\"", "\"\\ud800\""}) {
    std::string Text = Bad; // The parser keeps a reference.
    json::JsonParser Parser(Text);
    EXPECT_FALSE(Parser.parse(V)) << Bad;
  }
  std::string Upper = "\"\\u001F\"";
  json::JsonParser UpperParser(Upper);
  ASSERT_TRUE(UpperParser.parse(V));
  EXPECT_EQ(V.Str, "\x1f");
}

TEST(JsonTest, LiveSnapshotRunIdRoundTrips) {
  telemetry::LiveSnapshot Snap;
  Snap.RunId = std::string("a\x01") + "b\"\\\n";
  std::string Text = telemetry::liveSnapshotToJson(Snap);
  json::JsonValue Root;
  json::JsonParser Parser(Text);
  ASSERT_TRUE(Parser.parse(Root)) << Text;
  telemetry::LiveSnapshot Back;
  std::string Error;
  ASSERT_TRUE(telemetry::liveSnapshotFromJson(Root, Back, Error)) << Error;
  EXPECT_EQ(Back.RunId, Snap.RunId);
}
