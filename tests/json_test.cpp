// Unit tests for the JSON reader behind the state-definition language.

#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"

namespace xanadu::common {
namespace {

JsonValue must_parse(const std::string& text) {
  auto result = parse_json(text);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
  return std::move(result).value();
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(must_parse("null").is_null());
  EXPECT_TRUE(must_parse("true").as_bool());
  EXPECT_FALSE(must_parse("false").as_bool());
  EXPECT_DOUBLE_EQ(must_parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(must_parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(must_parse("\"hello\"").as_string(), "hello");
}

TEST(Json, ParsesEscapes) {
  EXPECT_EQ(must_parse(R"("a\nb\t\"c\"")").as_string(), "a\nb\t\"c\"");
  EXPECT_EQ(must_parse(R"("A")").as_string(), "A");
  EXPECT_EQ(must_parse(R"("é")").as_string(), "\xc3\xa9");
}

TEST(Json, ParsesArrays) {
  const JsonValue v = must_parse("[1, 2, [3, 4], \"x\"]");
  ASSERT_TRUE(v.is_array());
  const JsonArray& arr = v.as_array();
  ASSERT_EQ(arr.size(), 4u);
  EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
  EXPECT_EQ(arr[2].as_array().size(), 2u);
  EXPECT_EQ(arr[3].as_string(), "x");
}

TEST(Json, EmptyContainers) {
  EXPECT_TRUE(must_parse("[]").as_array().empty());
  EXPECT_TRUE(must_parse("{}").as_object().empty());
}

TEST(Json, ParsesNestedObjects) {
  const JsonValue v = must_parse(R"({"a": {"b": {"c": 1}}, "d": [true]})");
  const JsonObject& obj = v.as_object();
  EXPECT_TRUE(obj.contains("a"));
  EXPECT_DOUBLE_EQ(
      obj.at("a").as_object().at("b").as_object().at("c").as_number(), 1.0);
  EXPECT_TRUE(obj.at("d").as_array()[0].as_bool());
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const JsonValue v = must_parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& keys = v.as_object().keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "z");
  EXPECT_EQ(keys[1], "a");
  EXPECT_EQ(keys[2], "m");
}

TEST(Json, DuplicateKeysAreRejected) {
  // Last-wins would silently drop an earlier member, turning hand-edited or
  // corrupted metadata documents into plausible-looking state; the parser
  // rejects duplicates and names the offending key.
  auto result = parse_json(R"({"a": 1, "a": 2})");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("duplicate object key"),
            std::string::npos)
      << result.error().message;
  EXPECT_NE(result.error().message.find("\"a\""), std::string::npos);
  // Nested objects are checked too; same-named keys in *different* objects
  // remain fine.
  EXPECT_FALSE(parse_json(R"({"outer": {"k": 1, "k": 2}})").ok());
  EXPECT_TRUE(parse_json(R"({"x": {"k": 1}, "y": {"k": 2}})").ok());
}

TEST(Json, ProgrammaticSetStaysLastWins) {
  // JsonObject::set (used by dump()-side builders) keeps overwrite
  // semantics: only the textual parser enforces uniqueness.
  JsonObject obj;
  obj.set("a", JsonValue{1.0});
  obj.set("a", JsonValue{2.0});
  EXPECT_EQ(obj.keys().size(), 1u);
  EXPECT_DOUBLE_EQ(obj.at("a").as_number(), 2.0);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(parse_json("").ok());
  EXPECT_FALSE(parse_json("{").ok());
  EXPECT_FALSE(parse_json("[1, ]").ok());
  EXPECT_FALSE(parse_json("{\"a\" 1}").ok());
  EXPECT_FALSE(parse_json("\"unterminated").ok());
  EXPECT_FALSE(parse_json("tru").ok());
  EXPECT_FALSE(parse_json("1 2").ok());
  EXPECT_FALSE(parse_json("{\"a\": 1,}").ok());
}

TEST(Json, ErrorsCarryLocation) {
  auto result = parse_json("{\n  \"a\": @\n}");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("json:2"), std::string::npos)
      << result.error().message;
}

TEST(Json, WrongKindAccessThrows) {
  const JsonValue v = must_parse("42");
  EXPECT_THROW((void)v.as_string(), std::logic_error);
  EXPECT_THROW((void)v.as_object(), std::logic_error);
}

TEST(Json, MissingObjectKeyThrows) {
  const JsonValue v = must_parse("{}");
  EXPECT_THROW((void)v.as_object().at("nope"), std::out_of_range);
  EXPECT_EQ(v.as_object().find("nope"), nullptr);
}

TEST(Json, DumpRoundTrips) {
  const std::string text =
      R"({"name":"f1","memory":512,"deps":["a","b"],"flag":true,"none":null})";
  const JsonValue v = must_parse(text);
  const JsonValue reparsed = must_parse(v.dump());
  EXPECT_EQ(reparsed.dump(), v.dump());
  EXPECT_EQ(reparsed.as_object().at("memory").as_number(), 512.0);
}

TEST(Json, DumpEscapesSpecialCharacters) {
  JsonObject obj;
  obj.set("k", JsonValue{std::string{"line\nbreak\t\"q\""}});
  const std::string dumped = JsonValue{std::move(obj)}.dump();
  const JsonValue round = must_parse(dumped);
  EXPECT_EQ(round.as_object().at("k").as_string(), "line\nbreak\t\"q\"");
}

TEST(Json, CopySemanticsDeepCopy) {
  JsonValue original = must_parse(R"({"a": [1, 2, 3]})");
  JsonValue copy = original;  // Deep copy.
  EXPECT_EQ(copy.dump(), original.dump());
}

/// `depth` arrays, or objects whose one member holds the next level, around
/// a 0.
std::string nested(std::size_t depth, bool objects) {
  std::string text;
  for (std::size_t i = 0; i < depth; ++i) text += objects ? "{\"k\":" : "[";
  text += '0';
  text.append(depth, objects ? '}' : ']');
  return text;
}

TEST(Json, DeepNestingIsALocatedErrorNotACrash) {
  // The parser recurses once per level, so without the cap 100,000 levels
  // would overflow the stack.
  for (const bool objects : {false, true}) {
    const auto result = parse_json(nested(100'000, objects));
    ASSERT_FALSE(result.ok()) << (objects ? "objects" : "arrays");
    EXPECT_NE(result.error().message.find("nesting deeper than 256 levels"),
              std::string::npos)
        << result.error().message;
    EXPECT_NE(result.error().message.find("json:1:"), std::string::npos)
        << result.error().message;
  }
  // The first '[' past the cap is the one reported.
  const auto one_over = parse_json(nested(kMaxJsonDepth + 1, false));
  ASSERT_FALSE(one_over.ok());
  EXPECT_NE(one_over.error().message.find("json:1:257:"), std::string::npos)
      << one_over.error().message;
}

TEST(Json, NestingExactlyAtTheCapParses) {
  for (const bool objects : {false, true}) {
    const JsonValue deep = must_parse(nested(kMaxJsonDepth, objects));
    EXPECT_EQ(deep.dump(), nested(kMaxJsonDepth, objects));
    const JsonValue copy = deep;  // Deep copy, one level per frame.
    EXPECT_EQ(copy.dump(), deep.dump());
  }
}

}  // namespace
}  // namespace xanadu::common
