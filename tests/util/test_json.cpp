#include "util/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/json_parse.h"
#include "util/rng.h"

namespace sqz::util {
namespace {

// Render one document through both sinks; they must agree byte for byte.
std::string render(int indent, const std::function<void(JsonWriter&)>& build) {
  std::string doc;
  JsonWriter to_string(doc, indent);
  build(to_string);
  EXPECT_TRUE(to_string.done());

  std::ostringstream os;
  JsonWriter to_stream(os, indent);
  build(to_stream);
  EXPECT_TRUE(to_stream.done());
  EXPECT_EQ(os.str(), doc) << "ostream adapter differs from the string sink";
  return doc;
}

std::string compact(const std::function<void(JsonWriter&)>& build) {
  return render(/*indent=*/0, build);
}

// The formatter json_number replaced, kept as the oracle: the smallest
// precision 1..17 whose `%.*g` text strtod maps back to the same double.
std::string reference_json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

void expect_matches_reference(double v, int& mismatches) {
  const std::string got = json_number(v);
  const std::string want = reference_json_number(v);
  if (got == want) return;
  if (++mismatches <= 10)
    ADD_FAILURE() << "json_number(" << want << ") gave " << got;
}

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("conv1 [WS]"), "conv1 [WS]");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("\b\f"), "\\b\\f");
}

TEST(JsonEscape, Utf8BytesPassThrough) {
  EXPECT_EQ(json_escape("32\xc3\x97"
                        "32"),
            "32\xc3\x97"
            "32");  // "32×32"
}

TEST(JsonNumber, IntegersAndSimpleFractions) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(5.0), "5");
  EXPECT_EQ(json_number(0.4), "0.4");
  EXPECT_EQ(json_number(-2.5), "-2.5");
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumber, RoundTripsExactly) {
  // The formatter promises the shortest decimal string that parses back to
  // the identical double — check awkward values bit-exactly.
  for (double v : {1.0 / 3.0, 0.1, 1e300, -1e-300, 3.14159265358979,
                   123456789.123456789, 2.2250738585072014e-308}) {
    const std::string s = json_number(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(JsonNumber, MatchesPrintfOracleOnRandomBitPatterns) {
  // Uniform bit patterns: every exponent, subnormals, NaN payloads; most
  // need 15-17 digits.
  Rng rng(0x5eed'0015);
  int mismatches = 0;
  for (int i = 0; i < 200'000; ++i)
    expect_matches_reference(from_bits(rng.next_u64()), mismatches);
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonNumber, MatchesPrintfOracleOnShortDecimals) {
  // Values with few significant digits, like the knob values, ratios and
  // energies a report carries: the shortest form is short, so the search
  // starts (and sometimes must step) far below 17 digits.
  Rng rng(0x5eed'0016);
  int mismatches = 0;
  char text[48];
  for (int i = 0; i < 50'000; ++i) {
    const int digits = static_cast<int>(rng.next_in(1, 17));
    std::uint64_t mantissa = 0;
    for (int d = 0; d < digits; ++d) mantissa = mantissa * 10 + rng.next_below(10);
    std::snprintf(text, sizeof text, "%s%llue%d", rng.next_bernoulli(0.5) ? "-" : "",
                  static_cast<unsigned long long>(mantissa),
                  static_cast<int>(rng.next_in(-330, 300)));
    expect_matches_reference(std::strtod(text, nullptr), mismatches);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonNumber, MatchesPrintfOracleOnPowersOfTwoAndNeighbours) {
  // Below a power of two the rounding interval is asymmetric: the shortest
  // digits are not always the correctly rounded ones.
  int mismatches = 0;
  for (int e = -1074; e <= 1023; ++e) {
    for (const double sign : {1.0, -1.0}) {
      const double p = sign * std::ldexp(1.0, e);
      expect_matches_reference(p, mismatches);
      expect_matches_reference(std::nextafter(p, 0.0), mismatches);
      expect_matches_reference(
          std::nextafter(p, sign * std::numeric_limits<double>::infinity()),
          mismatches);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonNumber, MatchesPrintfOracleOnEdgeValues) {
  int mismatches = 0;
  for (const double v :
       {0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN,
        -DBL_TRUE_MIN, std::nextafter(DBL_MIN, 0.0), DBL_EPSILON, 1.0 / 3.0,
        0.1, 0.2, 0.3, 1e23, 5e-324, 9007199254740993.0, 123456789012345678.0})
    expect_matches_reference(v, mismatches);
  // Subnormals across their whole range, including the largest.
  for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << 52); bits = bits * 3 + 1)
    expect_matches_reference(from_bits(bits), mismatches);
  expect_matches_reference(from_bits((std::uint64_t{1} << 52) - 1), mismatches);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(json_number(DBL_TRUE_MIN), "5e-324");
  EXPECT_EQ(json_number(1e21), "1e+21");
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::signaling_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(json_number(v), "null");
    EXPECT_EQ(reference_json_number(v), "null");
  }
}

TEST(JsonWriter, EmptyContainers) {
  EXPECT_EQ(compact([](JsonWriter& w) {
              w.begin_object();
              w.end_object();
            }),
            "{}");
  EXPECT_EQ(compact([](JsonWriter& w) {
              w.begin_array();
              w.end_array();
            }),
            "[]");
}

TEST(JsonWriter, ObjectMembersAndArrays) {
  const std::string s = compact([](JsonWriter& w) {
    w.begin_object();
    w.member("name", "fire2/squeeze1x1");
    w.member("cycles", std::int64_t{934825});
    w.member("ratio", 0.5);
    w.member("on", true);
    w.key("df");
    w.null_value();
    w.key("tags");
    w.begin_array();
    w.value("a");
    w.value(std::int64_t{2});
    w.end_array();
    w.end_object();
  });
  EXPECT_EQ(s,
            "{\"name\":\"fire2/squeeze1x1\",\"cycles\":934825,\"ratio\":"
            "0.5,\"on\":true,\"df\":null,\"tags\":[\"a\",2]}");
}

TEST(JsonWriter, PrettyPrintIsStable) {
  EXPECT_EQ(render(2,
                   [](JsonWriter& w) {
                     w.begin_object();
                     w.member("a", std::int64_t{1});
                     w.key("b");
                     w.begin_array();
                     w.value(std::int64_t{2});
                     w.end_array();
                     w.end_object();
                   }),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonWriter, SinksAgreeOnAWholeDocumentCompactAndIndented) {
  const auto build = [](JsonWriter& w) {
    w.begin_object();
    w.member("name", std::string("fire2/\"squeeze\"\n"));
    w.member("engine", "pe-array");
    w.member("size", std::size_t{42});
    w.member("index", -7);
    w.member("ratio", 0.1);
    w.member("big", 1e300);
    w.member("none", std::numeric_limits<double>::quiet_NaN());
    w.key("empty");
    w.begin_object();
    w.end_object();
    w.key("rows");
    w.begin_array();
    for (int i = 0; i < 3; ++i) {
      w.begin_object();
      w.member("i", i);
      w.member("on", i % 2 == 0);
      w.key("xs");
      w.begin_array();
      w.value(i * 0.25);
      w.null_value();
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  };
  const std::string flat = render(0, build);
  const std::string pretty = render(2, build);
  EXPECT_EQ(parse_json(flat).at("rows").at(std::size_t{2}).at("i").as_int(), 2);
  EXPECT_EQ(parse_json(pretty).at("name").as_string(), "fire2/\"squeeze\"\n");
  EXPECT_NE(flat, pretty);
}

TEST(JsonWriter, StreamAdapterWritesOnlyTheCompletedDocument) {
  std::ostringstream os;
  os << "before:";
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.member("a", 1);
  w.key("b");
  w.begin_array();
  w.value(2.5);
  w.end_array();
  EXPECT_EQ(os.str(), "before:");  // nothing until the top level closes
  w.end_object();
  os << "\n";
  EXPECT_EQ(os.str(), "before:{\"a\":1,\"b\":[2.5]}\n");

  std::ostringstream abandoned;
  {
    JsonWriter half(abandoned);
    half.begin_array();
    half.value(1);
  }
  EXPECT_EQ(abandoned.str(), "");

  std::ostringstream scalar;
  JsonWriter one(scalar);
  one.value(std::int64_t{-3});
  EXPECT_EQ(scalar.str(), "-3");
}

TEST(JsonWriter, StringLiteralIsAStringNotABool) {
  EXPECT_EQ(compact([](JsonWriter& w) { w.value("pe-array"); }),
            "\"pe-array\"");
  EXPECT_EQ(compact([](JsonWriter& w) {
              w.begin_object();
              w.member("engine", "simd");
              w.member("on", true);
              w.end_object();
            }),
            "{\"engine\":\"simd\",\"on\":true}");
}

TEST(JsonWriter, StringSinkAppendsToExistingText) {
  std::string doc = "prefix ";
  JsonWriter w(doc, /*indent=*/0);
  w.begin_array();
  w.value(std::int64_t{1});
  w.end_array();
  EXPECT_EQ(doc, "prefix [1]");
}

TEST(JsonWriter, RoundTripsThroughStrictParser) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.member("weird key \"x\"\n", "va\\lue\t");
  w.member("min", std::numeric_limits<std::int64_t>::min());
  w.member("max", std::numeric_limits<std::int64_t>::max());
  w.member("frac", 1.0 / 3.0);
  w.key("nested");
  w.begin_array();
  w.begin_object();
  w.member("deep", false);
  w.end_object();
  w.null_value();
  w.end_array();
  w.end_object();

  const JsonValue v = parse_json(os.str());
  EXPECT_EQ(v.at("weird key \"x\"\n").as_string(), "va\\lue\t");
  EXPECT_EQ(v.at("min").as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.at("max").raw_number, "9223372036854775807");
  EXPECT_EQ(v.at("frac").as_double(), 1.0 / 3.0);
  EXPECT_EQ(v.at("nested").at(std::size_t{0}).at("deep").as_bool(), false);
  EXPECT_EQ(v.at("nested").at(std::size_t{1}).type, JsonValue::Type::Null);
}

TEST(JsonWriter, MisuseThrowsInsteadOfEmittingGarbage) {
  std::ostringstream os;
  std::string doc;
  {
    JsonWriter w(doc);
    w.begin_object();
    EXPECT_THROW(w.value("v"), std::logic_error);  // key missing
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
    w.key("k");
    EXPECT_THROW(w.key("j"), std::logic_error);     // key after key
    w.value(1);
    w.end_object();
    EXPECT_THROW(w.begin_array(), std::logic_error);  // second top level
  }
  {
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(std::int64_t{1}), std::logic_error);  // key missing
  }
  {
    JsonWriter w(os);
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key outside object
  }
  {
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
  }
  {
    JsonWriter w(os);
    w.begin_object();
    w.key("k");
    EXPECT_THROW(w.end_object(), std::logic_error);  // dangling key
    EXPECT_THROW(w.key("j"), std::logic_error);      // key after key
  }
  {
    JsonWriter w(os);
    w.value("done");
    EXPECT_TRUE(w.done());
    EXPECT_THROW(w.value("again"), std::logic_error);  // two top-level values
  }
}

TEST(MiniJsonParser, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "01",
                          "1.", "1e", "\"\\x\"", "tru", "{\"a\":1}{", "[1] 2",
                          "{\"a\":1,\"a\":2}", "\"\x01\""}) {
    EXPECT_THROW(parse_json(bad), std::runtime_error) << bad;
  }
}

}  // namespace
}  // namespace sqz::util
