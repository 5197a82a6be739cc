#include "util/json_writer.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ddsgraph {
namespace {

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter json;
  json.String(std::string("a\"b\\c\n\t\r\b\f") + '\x01' + '\x1f' + '\0' +
              "\x7f\xc3\xa9");
  EXPECT_EQ(json.str(),
            "\"a\\\"b\\\\c\\n\\t\\r\\b\\f\\u0001\\u001f\\u0000"
            "\x7f\xc3\xa9\"");
}

TEST(JsonWriterTest, EscapesKeysLikeValues) {
  JsonWriter json;
  json.BeginObject().Key("k\"\n").Int(1).EndObject();
  EXPECT_EQ(json.str(), "{\"k\\\"\\n\": 1}");
}

TEST(JsonWriterTest, SeparatesMembersOfNestedObjectsAndArrays) {
  JsonWriter json;
  json.BeginObject()
      .Key("a").Int(-3)
      .Key("o").BeginObject().Key("x").Bool(true).Key("y").Raw("null")
      .EndObject()
      .Key("l").BeginArray()
      .BeginObject().Key("n").Int(uint64_t{18446744073709551615u}).EndObject()
      .String("s")
      .BeginArray().Int(1).Int(2).EndArray()
      .EndArray()
      .Key("z").Bool(false)
      .EndObject();
  EXPECT_EQ(json.str(),
            "{\"a\": -3, \"o\": {\"x\": true, \"y\": null}, "
            "\"l\": [{\"n\": 18446744073709551615}, \"s\", [1, 2]], "
            "\"z\": false}");
}

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter json;
  json.BeginObject()
      .Key("o").BeginObject().EndObject()
      .Key("a").BeginArray().EndArray()
      .Key("i").IntArray(std::vector<int>{})
      .EndObject();
  EXPECT_EQ(json.str(), "{\"o\": {}, \"a\": [], \"i\": []}");
  JsonWriter empty;
  empty.BeginObject().EndObject();
  EXPECT_EQ(empty.str(), "{}");
}

TEST(JsonWriterTest, RawValuesAreVerbatim) {
  JsonWriter json;
  json.BeginArray()
      .Raw("\"id-1\"")
      .Raw("{\"nested\": [1,2]}")
      .Raw("17")
      .EndArray();
  EXPECT_EQ(json.str(), "[\"id-1\", {\"nested\": [1,2]}, 17]");
}

TEST(JsonWriterTest, NumberFormats) {
  JsonWriter json;
  json.BeginArray()
      .Double(3.14159265, 6)
      .Double(2.5, 6)
      .Double(40, 3)
      .RoundTrip(0.1 + 0.2)
      .RoundTrip(26.75)
      .IntArray(std::vector<uint32_t>{0, 2}, [](uint32_t v) { return v + 7; })
      .EndArray();
  EXPECT_EQ(json.str(),
            "[3.141593, 2.5, 40, 0.30000000000000004, 26.75, [7,9]]");
}

TEST(JsonWriterTest, KeyNeedleIsWhatTheWriterEmits) {
  JsonWriter json;
  json.BeginObject().Key("queue_ms").Int(2).EndObject();
  EXPECT_NE(json.str().find(JsonKeyNeedle("queue_ms") + "2"),
            std::string::npos);
  EXPECT_EQ(JsonKeyNeedle("a"), "\"a\": ");
}

// The bench-file layout: the outer `line_depth` levels put each member on
// its own line, deeper containers stay on one line.
TEST(JsonWriterTest, LineDepthPutsOuterMembersOnTheirOwnLines) {
  JsonWriter json(2);
  json.BeginObject()
      .Key("experiment").String("e0")
      .Key("rows").BeginArray()
      .BeginObject().Key("a").Int(1).Key("b").BeginArray().Int(2).EndArray()
      .EndObject()
      .BeginObject().Key("a").Int(3).EndObject()
      .EndArray()
      .Key("none").BeginArray().EndArray()
      .EndObject();
  EXPECT_EQ(json.str(),
            "{\n"
            "  \"experiment\": \"e0\",\n"
            "  \"rows\": [\n"
            "    {\"a\": 1, \"b\": [2]},\n"
            "    {\"a\": 3}\n"
            "  ],\n"
            "  \"none\": []\n"
            "}");
}

}  // namespace
}  // namespace ddsgraph
