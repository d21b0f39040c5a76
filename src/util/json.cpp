#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"

namespace camad {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

std::string json_quote(std::string_view text) {
  return '"' + json_escape(text) + '"';
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  // %g-style text (100 prints 1e+02) with the fewest significant digits
  // that round-trip. The shortest round-trip form gives that count; a
  // power of two rounded to it can land on the narrow side of its
  // rounding interval, and then needs one digit more.
  char buffer[32];
  char* end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                            std::chars_format::scientific)
                  .ptr;
  int digits = 0;
  for (const char* p = buffer; p != end && *p != 'e'; ++p) {
    if (*p >= '0' && *p <= '9') ++digits;
  }
  for (;; ++digits) {
    end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                        std::chars_format::general, digits)
              .ptr;
    double parsed = 0;
    std::from_chars(buffer, end, parsed);
    if (parsed == value) return std::string(buffer, end);
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ << '{';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  counts_.pop_back();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ << '[';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  counts_.pop_back();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  out_ << '"' << json_escape(name) << "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separate();
  out_ << '"' << json_escape(text) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  separate();
  out_ << (flag ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  separate();
  out_ << json_number(number);
  return *this;
}

JsonWriter& JsonWriter::integer(std::int64_t number) {
  separate();
  out_ << number;
  return *this;
}

JsonWriter& JsonWriter::unsigned_integer(std::uint64_t number) {
  separate();
  out_ << number;
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ << json;
  return *this;
}

void JsonWriter::separate() {
  if (after_key_) {
    // The colon was already written by key(); the value follows directly.
    after_key_ = false;
    return;
  }
  if (!counts_.empty()) {
    if (counts_.back() > 0) out_ << ',';
    ++counts_.back();
  }
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

/// Recursive-descent JSON reader over a string_view.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    JsonValue value;
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.string = parse_string();
        return value;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
        return value;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        value.kind = JsonValue::Kind::kNull;
        return value;
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      value.object.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (the writers only escape
          // control characters, so surrogate pairs do not occur).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == begin) fail("expected a value");
    const std::string token(text_.substr(begin, pos_ - begin));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = begin;
      fail("bad number '" + token + "'");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = parsed;
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace camad
