#include "util/json.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace sqz::util {

namespace {

void append_json_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t plain = 0;  // start of the pending run of bytes that pass through
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(text.data() + plain, text.size() - plain);
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  // Shortest round-trip digit count, from the scientific form's mantissa.
  char buf[32];
  char* end =
      std::to_chars(buf, buf + sizeof buf, value, std::chars_format::scientific)
          .ptr;
  int precision = 0;
  for (const char* p = buf; p != end && *p != 'e'; ++p)
    if (*p >= '0' && *p <= '9') ++precision;
  // `%.*g` at that precision; one digit more while the correctly rounded
  // text misses the double (17 digits always round-trip).
  for (;; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == value || precision >= 17) break;
  }
  out.append(buf, end);
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

std::string json_number(double value) {
  std::string out;
  append_json_number(out, value);
  return out;
}

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(frames_.size() * static_cast<std::size_t>(indent_), ' ');
}

void JsonWriter::before_value(bool is_key) {
  if (top_level_written_ && frames_.empty())
    throw std::logic_error("JsonWriter: document already complete");
  if (!frames_.empty() && !frames_.back().is_array && !is_key && !key_pending_)
    throw std::logic_error("JsonWriter: object member needs a key() first");
  if (key_pending_ && is_key)
    throw std::logic_error("JsonWriter: key() already pending");
  if (frames_.empty() || key_pending_) {
    // Top-level value, or the value following a key: no separator.
    if (!is_key) key_pending_ = false;
    return;
  }
  Frame& f = frames_.back();
  if (f.is_array || is_key) {
    if (f.has_items) out_ += ',';
    newline_indent();
    f.has_items = true;
  }
}

// A scalar or container just finished: if it was the top-level value, the
// document is complete and the ostream adapter hands it over.
void JsonWriter::after_value() {
  if (!frames_.empty()) return;
  top_level_written_ = true;
  if (os_)
    os_->write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
}

void JsonWriter::begin_object() {
  before_value(false);
  out_ += '{';
  frames_.push_back({/*is_array=*/false, /*has_items=*/false});
}

void JsonWriter::begin_array() {
  before_value(false);
  out_ += '[';
  frames_.push_back({/*is_array=*/true, /*has_items=*/false});
}

void JsonWriter::close(bool is_array) {
  if (frames_.empty() || frames_.back().is_array != is_array ||
      (!is_array && key_pending_))
    throw std::logic_error(is_array
                               ? "JsonWriter: end_array() without matching array"
                               : "JsonWriter: end_object() without matching object");
  const bool had_items = frames_.back().has_items;
  frames_.pop_back();
  if (had_items) newline_indent();
  out_ += is_array ? ']' : '}';
  after_value();
}

void JsonWriter::end_object() { close(/*is_array=*/false); }

void JsonWriter::end_array() { close(/*is_array=*/true); }

void JsonWriter::key(std::string_view name) {
  if (frames_.empty() || frames_.back().is_array)
    throw std::logic_error("JsonWriter: key() outside an object");
  before_value(true);
  out_ += '"';
  append_json_escaped(out_, name);
  out_ += indent_ > 0 ? "\": " : "\":";
  key_pending_ = true;
}

void JsonWriter::value(std::string_view v) {
  before_value(false);
  out_ += '"';
  append_json_escaped(out_, v);
  out_ += '"';
  after_value();
}

void JsonWriter::value(std::int64_t v) {
  before_value(false);
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  after_value();
}

void JsonWriter::value(double v) {
  before_value(false);
  append_json_number(out_, v);
  after_value();
}

void JsonWriter::value(bool v) {
  before_value(false);
  out_ += v ? "true" : "false";
  after_value();
}

void JsonWriter::null_value() {
  before_value(false);
  out_ += "null";
  after_value();
}

}  // namespace sqz::util
