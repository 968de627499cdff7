#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.hpp"

namespace hetero::obs {

bool Json::as_bool() const {
  HETERO_REQUIRE(type_ == Type::kBool, "Json: not a bool");
  return bool_;
}

double Json::as_number() const {
  HETERO_REQUIRE(type_ == Type::kNumber, "Json: not a number");
  return number_;
}

const std::string& Json::as_string() const {
  HETERO_REQUIRE(type_ == Type::kString, "Json: not a string");
  return string_;
}

const std::vector<JsonMember>& Json::as_object() const {
  HETERO_REQUIRE(type_ == Type::kObject, "Json: not an object");
  return members_;
}

void Json::push_back(Json value) {
  HETERO_REQUIRE(type_ == Type::kArray, "Json: push_back on a non-array");
  array_.push_back(std::move(value));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) {
    return array_.size();
  }
  if (type_ == Type::kObject) {
    return members_.size();
  }
  HETERO_REQUIRE(false, "Json: size() on a scalar");
  return 0;
}

const Json& Json::operator[](std::size_t i) const {
  HETERO_REQUIRE(type_ == Type::kArray && i < array_.size(),
                 "Json: array index out of range");
  return array_[i];
}

void Json::set(const std::string& key, Json value) {
  HETERO_REQUIRE(type_ == Type::kObject, "Json: set() on a non-object");
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

void Json::reserve(std::size_t members) {
  HETERO_REQUIRE(type_ == Type::kObject, "Json: reserve() on a non-object");
  members_.reserve(members);
}

const Json& Json::at(const std::string& key) const {
  const Json* found = find(key);
  HETERO_REQUIRE(found != nullptr, "Json: missing key '" + key + "'");
  return *found;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& member : members_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v) {
  // JSON has no NaN/Infinity literal. A FAILED experiment row can carry a
  // non-finite phase time; serialize it as null so one bad cell cannot kill
  // a whole JSONL export mid-campaign.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // std::to_chars is specified as printf's "%lld" and "%.17g" (C locale),
  // without printf's format parsing and locale lookups.
  char buf[32];
  const std::to_chars_result r =
      v == std::floor(v) && std::fabs(v) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v))
          : std::to_chars(buf, buf + sizeof(buf), v,
                          std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

}  // namespace

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      append_number(out, number_);
      break;
    case Type::kString:
      append_escaped(out, string_);
      break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& v : array_) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        v.dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& member : members_) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        append_escaped(out, member.first);
        out.push_back(':');
        member.second.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    HETERO_REQUIRE(pos_ == text_.size(),
                   "Json: trailing characters at offset " +
                       std::to_string(pos_));
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("Json parse error at offset " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, literal) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      return parse_object();
    }
    if (c == '[') {
      return parse_array();
    }
    if (c == '"') {
      return Json(parse_string());
    }
    if (consume_literal("true")) {
      return Json(true);
    }
    if (consume_literal("false")) {
      return Json(false);
    }
    if (consume_literal("null")) {
      return Json(nullptr);
    }
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code += static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code += static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code += static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      c = text_[pos_++];
      switch (c) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a \uDC00-\uDFFF low surrogate must follow and
            // the pair decodes to one supplementary-plane code point.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("high surrogate not followed by \\u low surrogate");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("high surrogate followed by a non-low-surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          // UTF-8 encode (full Unicode range, surrogate pairs included).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  bool at_digit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }

  // Strict RFC 8259 grammar:
  //   -? ( 0 | [1-9][0-9]* ) ( . [0-9]+ )? ( [eE] [+-]? [0-9]+ )?
  // A leading '+', leading zeros, a bare '.', and a dangling exponent are
  // all rejected here instead of being left for strtod to reinterpret.
  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    if (!at_digit()) {
      fail("expected a value");
    }
    if (text_[pos_] == '0') {
      ++pos_;
      if (at_digit()) {
        fail("leading zeros are not valid JSON");
      }
    } else {
      while (at_digit()) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!at_digit()) {
        fail("expected a digit after the decimal point");
      }
      while (at_digit()) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!at_digit()) {
        fail("expected a digit in the exponent");
      }
      while (at_digit()) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    return Json(std::strtod(token.c_str(), nullptr));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace hetero::obs
