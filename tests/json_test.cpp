// Tests for the minimal JSON reader/writer used by configuration
// import/export.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "falcon/json.hpp"

namespace composim::falcon {
namespace {

TEST(Json, ScalarTypesRoundTrip) {
  EXPECT_EQ(Json::parse("null"), Json(nullptr));
  EXPECT_EQ(Json::parse("true"), Json(true));
  EXPECT_EQ(Json::parse("false"), Json(false));
  EXPECT_EQ(Json::parse("42"), Json(std::int64_t{42}));
  EXPECT_EQ(Json::parse("-17"), Json(std::int64_t{-17}));
  EXPECT_DOUBLE_EQ(Json::parse("3.25").asDouble(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").asDouble(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, IntAndDoubleInterconvert) {
  EXPECT_DOUBLE_EQ(Json(std::int64_t{7}).asDouble(), 7.0);
  EXPECT_EQ(Json(2.9).asInt(), 2);
  EXPECT_THROW(Json("x").asInt(), JsonError);
}

TEST(Json, ObjectInsertOrderPreserved) {
  Json o = Json::object();
  o.set("z", 1);
  o.set("a", 2);
  o.set("m", 3);
  EXPECT_EQ(o.dump(-1), "{\"z\":1,\"a\":2,\"m\":3}");
  o.set("a", 9);  // overwrite keeps position
  EXPECT_EQ(o.at("a").asInt(), 9);
  EXPECT_EQ(o.dump(-1), "{\"z\":1,\"a\":9,\"m\":3}");
}

TEST(Json, FindAndAtSemantics) {
  Json o = Json::object();
  o.set("k", "v");
  EXPECT_NE(o.find("k"), nullptr);
  EXPECT_EQ(o.find("missing"), nullptr);
  EXPECT_THROW(o.at("missing"), JsonError);
  EXPECT_THROW(Json(3).at("k"), JsonError);
}

TEST(Json, NestedRoundTrip) {
  const std::string text = R"({
    "chassis": "falcon0",
    "drawers": [
      {"index": 0, "mode": "Standard",
       "slots": [{"index": 0, "type": "GPU", "port": -1}]},
      {"index": 1, "mode": "Advanced", "slots": []}
    ],
    "ratio": 0.5,
    "ok": true
  })";
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed.at("chassis").asString(), "falcon0");
  EXPECT_EQ(parsed.at("drawers").asArray().size(), 2u);
  EXPECT_EQ(parsed.at("drawers").asArray()[0].at("slots").asArray()[0]
                .at("port").asInt(), -1);
  // dump -> parse -> dump is a fixed point.
  const std::string once = parsed.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(Json, StringEscapes) {
  Json s(std::string("line\n\t\"quoted\" \\slash"));
  const std::string dumped = s.dump();
  EXPECT_EQ(Json::parse(dumped).asString(), s.asString());
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").asString(), "A\xc3\xa9");
}

TEST(Json, ControlCharactersEscapedOnOutput) {
  Json s(std::string("a\x01" "b"));
  EXPECT_EQ(s.dump(), "\"a\\u0001b\"");
}

TEST(Json, ParseErrorsCarryOffsets) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("-"), JsonError);
  try {
    Json::parse("[1, x]");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::parse("[]").asArray().size(), 0u);
  EXPECT_EQ(Json::parse("{}").asObject().size(), 0u);
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(), "{}");
}

TEST(Json, WhitespaceTolerant) {
  const Json v = Json::parse("  {  \"a\" :\n [ 1 ,\t2 ]  } ");
  EXPECT_EQ(v.at("a").asArray()[1].asInt(), 2);
}

TEST(Json, CompactVersusIndented) {
  Json o = Json::object();
  o.set("a", JsonArray{Json(1), Json(2)});
  EXPECT_EQ(o.dump(-1), "{\"a\":[1,2]}");
  const std::string pretty = o.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), o);
}

TEST(Json, PushOntoArray) {
  Json a = Json::array();
  a.push(1);
  a.push("two");
  EXPECT_EQ(a.asArray().size(), 2u);
  EXPECT_THROW(Json(1).push(2), JsonError);
}

// --- the writer pinned byte for byte against printf and a reference
// escaper, and the parser reading back everything the writer emits ---

/// What the writer must print for a double: printf("%.17g") in the C
/// locale, or null for the non-finite values JSON cannot carry.
std::string printfDouble(double d) {
  if (!std::isfinite(d)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

/// A straightforward per-character escaper the writer must match.
std::string referenceEscape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// The compact and indented forms of an array of already-written values.
std::string joined(const std::vector<std::string>& items, int indent) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    if (indent >= 0) out += "\n" + std::string(static_cast<std::size_t>(indent), ' ');
    out += items[i];
  }
  if (indent >= 0) out += '\n';
  return out + "]";
}

std::vector<double> edgeDoubles() {
  const double two53 = 9007199254740992.0;
  std::vector<double> v = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.5, -2.5, 1.0 / 3.0, 2.0 / 3.0,
      1e-4, 1e-5, 9.9999999999999991e-5, 1.0000000000000001e-4,
      1.23456789e-5, 123456.789, 1e14, 999999999999999.0, -999999999999999.0,
      999999999999999.5, 1e15, -1e15, 1e15 + 1.0, 1e15 + 0.5, 1e16, 1e16 + 2.0,
      1e17, 1.5e17, 1e21, 1e22, 1e300, two53 - 1.0, two53, two53 + 2.0,
      -(two53 - 1.0), -two53, 4.9406564584124654e-324,
      -4.9406564584124654e-324, 1e-310, std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      9.2233720368547758e18, -9.2233720368547758e18,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  return v;
}

TEST(JsonWriter, DoublesMatchPrintfByteForByte) {
  std::vector<double> values = edgeDoubles();
  // Random bit patterns cover every exponent; random integral values
  // straddle the 1e15 bound of the writer's integer path.
  std::mt19937_64 rng(20210517);
  for (int i = 0; i < 20000; ++i) {
    double d;
    const std::uint64_t bits = rng();
    std::memcpy(&d, &bits, sizeof(d));
    values.push_back(d);
    values.push_back(std::trunc(std::ldexp(static_cast<double>(rng() >> 11),
                                           static_cast<int>(rng() % 60) - 10)));
    values.push_back(static_cast<double>(rng() % 2000000) / 1024.0 - 900.0);
  }
  std::vector<std::string> want;
  for (const double d : values) {
    const std::string ref = printfDouble(d);
    ASSERT_EQ(Json(d).dump(-1), ref);
    ASSERT_EQ(Json(d).dump(2), ref);
    want.push_back(ref);
  }
  // The whole set as one document crosses the writer's buffer flushes.
  const JsonArray arr(values.begin(), values.end());
  EXPECT_EQ(Json(arr).dump(-1), joined(want, -1));
  EXPECT_EQ(Json(arr).dump(2), joined(want, 2));
}

TEST(JsonWriter, IntegersAndKnownDoublesWriteExactText) {
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::min()).dump(),
            "-9223372036854775808");
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::max()).dump(),
            "9223372036854775807");
  EXPECT_EQ(Json(std::int64_t{0}).dump(), "0");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_EQ(Json(1e-4).dump(), "0.0001");
  EXPECT_EQ(Json(1e-5).dump(), "1.0000000000000001e-05");
  EXPECT_EQ(Json(1e15).dump(), "1000000000000000");
  EXPECT_EQ(Json(999999999999999.0).dump(), "999999999999999");
  EXPECT_EQ(Json(1e16).dump(), "10000000000000000");
  EXPECT_EQ(Json(1e17).dump(), "1e+17");
  EXPECT_EQ(Json(9007199254740993.0).dump(), "9007199254740992");
  EXPECT_EQ(Json(4.9406564584124654e-324).dump(), "4.9406564584124654e-324");
  EXPECT_EQ(Json(std::numeric_limits<double>::max()).dump(),
            "1.7976931348623157e+308");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(JsonWriter, StringsMatchReferenceEscaperByteForByte) {
  std::vector<std::string> strings = {
      "", "plain", "\"", "\\", "quote \" and backslash \\ mixed",
      "\x7f", "caf\xc3\xa9", "\xe2\x82\xac 20", "\xf0\x9f\x98\x80",
      "tail\n", "\r\n\t"};
  for (int c = 0; c < 0x20; ++c) {
    strings.push_back(std::string(1, static_cast<char>(c)));
    strings.push_back("a" + std::string(1, static_cast<char>(c)) + "z");
  }
  std::string all_bytes;
  for (int c = 0; c < 256; ++c) all_bytes += static_cast<char>(c);
  strings.push_back(all_bytes);

  std::vector<std::string> want;
  for (const std::string& s : strings) {
    const std::string ref = referenceEscape(s);
    EXPECT_EQ(Json(s).dump(-1), ref);
    EXPECT_EQ(Json(s).dump(2), ref);
    // Keys go through the same escaper.
    Json obj = Json::object();
    obj.set(s, 1);
    EXPECT_EQ(obj.dump(-1), "{" + ref + ":1}");
    EXPECT_EQ(obj.dump(2), "{\n  " + ref + ": 1\n}");
    EXPECT_EQ(Json::parse(Json(s).dump()).asString(), s);
    want.push_back(ref);
  }
  JsonArray arr(strings.begin(), strings.end());
  EXPECT_EQ(Json(arr).dump(-1), joined(want, -1));
  EXPECT_EQ(Json(arr).dump(2), joined(want, 2));

  // Strings and indents longer than the writer's buffer.
  std::string long_string;
  for (int i = 0; i < 50000; ++i) {
    long_string += static_cast<char>(i % 7 == 0 ? i % 0x20 : 'a' + i % 26);
  }
  EXPECT_EQ(Json(long_string).dump(-1), referenceEscape(long_string));
  EXPECT_EQ(Json(std::string(40000, 'x')).dump(2), "\"" + std::string(40000, 'x') + "\"");
  EXPECT_EQ(Json(JsonArray{Json(1)}).dump(40000),
            "[\n" + std::string(40000, ' ') + "1\n]");

  EXPECT_EQ(Json(std::string("a\x01\x1f\"\\\n\r\t\b\f\x7f")).dump(),
            "\"a\\u0001\\u001f\\\"\\\\\\n\\r\\t\\u0008\\u000c\x7f\"");
}

TEST(JsonParser, ReadsBackEveryNumberTheWriterEmits) {
  // Subnormals are in range: the writer emits them and they read back.
  EXPECT_EQ(Json::parse(Json(4.9406564584124654e-324).dump()).asDouble(),
            4.9406564584124654e-324);
  EXPECT_EQ(Json::parse(Json(1e-310).dump()).asDouble(), 1e-310);
  for (const double d : edgeDoubles()) {
    if (!std::isfinite(d)) continue;
    const Json back = Json::parse(Json(d).dump());
    EXPECT_EQ(back.asDouble(), d) << printfDouble(d);
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    double d;
    const std::uint64_t bits = rng();
    std::memcpy(&d, &bits, sizeof(d));
    if (!std::isfinite(d)) continue;
    ASSERT_EQ(Json::parse(Json(d).dump(-1)).asDouble(), d) << printfDouble(d);
  }
  EXPECT_EQ(Json::parse("-9223372036854775808").asInt(),
            std::numeric_limits<std::int64_t>::min());
  // Integers past int64 still read, as doubles.
  EXPECT_DOUBLE_EQ(Json::parse("18446744073709551616").asDouble(), 1.8446744073709552e19);
}

TEST(JsonParser, RejectsOverflowAndMalformedNumbersWithOffsets) {
  for (const char* bad : {"1e400", "-1e400", "[1, 1e400]", "1e", "1e+", "-"}) {
    try {
      Json::parse(bad);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const JsonError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("offset"), std::string::npos) << what;
      EXPECT_NE(what.find("invalid number"), std::string::npos) << what;
    }
  }
  try {
    Json::parse("[1, 1e400]");
  } catch (const JsonError& e) {
    EXPECT_EQ(std::string(e.what()),
              "JSON parse error at offset 9: invalid number '1e400'");
  }
}

}  // namespace
}  // namespace composim::falcon
