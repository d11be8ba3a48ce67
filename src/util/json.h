// Dependency-free streaming JSON writer.
//
// Backs the machine-readable run reports, the sweep dumps, the serving
// layer's canonical keys and responses, and the Chrome trace exporter
// (core/report.h, core/dse.h, serve/api.h, core/trace.h): a push-style
// writer with a structural state machine, so emitted documents are
// well-formed by construction — misnested begin/end calls or a value without
// a key throw std::logic_error instead of producing broken output.
//
// Sinks. The writer appends to one std::string: strings are escaped in
// place and integers written with std::to_chars, so rendering a document
// costs no per-value temporary. The std::ostream constructor is a thin
// adapter over the same path: it builds the document in a private string
// and writes it to the stream once, when the top-level value completes —
// anything the caller streams after the last end_*() lands after the
// document, and a document abandoned half-way writes nothing.
//
// Numbers. A double prints as `%.*g` at the smallest precision (1..17) whose
// text parses back to the identical double — the historical contract every
// golden and journal value was written under. std::to_chars finds it
// without a printf/strtod loop: the shortest round-trip form
// (chars_format::scientific) gives the digit count d, and
// chars_format::general at precision d is exactly `%.*g` at d. Where the
// correctly rounded d-digit text does not round-trip (the shortest digits
// are not always the nearest ones, e.g. on the asymmetric interval below a
// power of two) the precision rises by one until std::from_chars returns
// the identical double.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sqz::util {

/// Escape one string for inclusion in a JSON document (no surrounding
/// quotes): ", \, and control characters; other bytes pass through (UTF-8).
std::string json_escape(const std::string& text);

/// Format a double as JSON: shortest `%.*g` text that parses back to the
/// identical double; non-finite values render as null (JSON has no NaN/Inf).
std::string json_number(double value);

/// Streaming writer. Typical use:
///
///   std::string doc;
///   JsonWriter w(doc);
///   w.begin_object();
///   w.member("name", "conv1");
///   w.key("counts"); w.begin_object(); ... w.end_object();
///   w.end_object();   // w.done() is now true; doc holds the document
///
/// Output is pretty-printed with 2-space indentation (indent 0 = compact).
class JsonWriter {
 public:
  /// Append the document to `out`.
  explicit JsonWriter(std::string& out, int indent = 2)
      : out_(out), indent_(indent) {}
  /// Write the document to `os` in one piece once it is complete.
  explicit JsonWriter(std::ostream& os, int indent = 2)
      : out_(pending_), os_(&os), indent_(indent) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object member name; must be followed by exactly one value/container.
  void key(std::string_view name);

  void value(std::string_view v);
  /// Keeps a string literal from binding to value(bool).
  void value(const char* v) { value(std::string_view(v)); }
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(std::size_t v) { value(static_cast<std::int64_t>(v)); }
  void value(double v);
  void value(bool v);
  void null_value();

  /// key() + value() in one call.
  template <typename T>
  void member(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

  /// True once the single top-level value has been completely written.
  bool done() const noexcept { return top_level_written_ && frames_.empty(); }

 private:
  struct Frame {
    bool is_array;
    bool has_items;
  };

  void before_value(bool is_key);
  void after_value();
  void newline_indent();
  void close(bool is_array);

  std::string pending_;  // the ostream adapter's document
  std::string& out_;
  std::ostream* os_ = nullptr;
  int indent_;
  std::vector<Frame> frames_;
  bool key_pending_ = false;
  bool top_level_written_ = false;
};

}  // namespace sqz::util
