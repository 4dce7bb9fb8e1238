#include "service/jsonin.h"

#include <cmath>
#include <cstdlib>

#include "util/error.h"

namespace spineless::service {

namespace {

[[noreturn]] void fail_at(std::size_t pos, const std::string& what) {
  throw Error("json: " + what + " at byte " + std::to_string(pos));
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail_at(pos_, "trailing characters");
    return v;
  }

 private:
  JsonValue parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) fail_at(pos_, "unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::string(parse_string());
      case 't': expect_word("true"); return JsonValue::boolean(true);
      case 'f': expect_word("false"); return JsonValue::boolean(false);
      case 'n': expect_word("null"); return JsonValue::null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::object(std::move(members));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail_at(pos_, "expected object key");
      std::string key = parse_string();
      skip_ws();
      if (peek() != ':') fail_at(pos_, "expected ':' after key");
      ++pos_;
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue::object(std::move(members));
      }
      fail_at(pos_, "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue::array(std::move(items));
      }
      fail_at(pos_, "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        fail_at(pos_, "raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode(out); break;
        default: fail_at(pos_ - 1, "unknown escape");
      }
    }
    fail_at(pos_, "unterminated string");
  }

  void append_unicode(std::string& out) {
    std::uint32_t cp = parse_hex4();
    // Surrogate pair: fold \uD800-\uDBFF + \uDC00-\uDFFF into one code
    // point; an unpaired surrogate is malformed.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u')
        fail_at(pos_, "unpaired surrogate");
      pos_ += 2;
      const std::uint32_t lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail_at(pos_, "invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail_at(pos_, "unpaired surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail_at(pos_, "truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail_at(pos_ - 1, "bad hex digit in \\u escape");
    }
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !is_digit(text_[pos_]))
      fail_at(start, "malformed number");
    if (text_[pos_] == '0') {
      ++pos_;  // no leading zeros
    } else {
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_]))
        fail_at(pos_, "malformed fraction");
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_]))
        fail_at(pos_, "malformed exponent");
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    }
    const std::string tok = text_.substr(start, pos_ - start);
    return JsonValue::number(std::strtod(tok.c_str(), nullptr));
  }

  void expect_word(const char* word) {
    const std::size_t start = pos_;
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p)
        fail_at(start, std::string("expected '") + word + "'");
      ++pos_;
    }
  }

  static bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

  char peek() const {
    if (pos_ >= text_.size()) fail_at(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void kind_error(const char* want) {
  throw Error(std::string("json: value is not ") + want);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  return num_;
}

std::int64_t JsonValue::as_int() const {
  const double v = as_number();
  const auto i = static_cast<std::int64_t>(v);
  if (static_cast<double>(i) != v) kind_error("an integer");
  return i;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return items_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

JsonValue JsonValue::null() { return JsonValue(); }

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = n;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::object(
    std::vector<std::pair<std::string, JsonValue>> kv) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(kv);
  return v;
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace spineless::service
