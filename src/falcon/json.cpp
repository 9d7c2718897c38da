#include "falcon/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>

namespace composim::falcon {

std::int64_t Json::asInt() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* d = std::get_if<double>(&value_)) {
    return static_cast<std::int64_t>(*d);
  }
  throw JsonError("Json: not a number");
}

double Json::asDouble() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  throw JsonError("Json: not a number");
}

const Json& Json::at(const std::string& key) const {
  if (const Json* p = find(key)) return *p;
  throw JsonError("Json: missing key '" + key + "'");
}

const Json* Json::find(const std::string& key) const {
  const auto& obj = asObject();
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(const std::string& key, Json value) {
  auto& obj = asObject();
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj.emplace_back(key, std::move(value));
}

/// Serializes a Json tree into a std::string. Tokens are written into a
/// fixed local buffer that is flushed to the string in whole blocks, so
/// each small write (a quote, a key, a number) is a bounds check plus a
/// memcpy instead of a std::string append.
class JsonWriter {
 public:
  JsonWriter(std::string& out, int indent) : out_(out), indent_(indent) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void value(const Json& v, int depth);
  void flush() {
    out_.append(buf_, len_);
    len_ = 0;
  }

 private:
  static constexpr std::size_t kBufSize = 16384;

  /// Room for `n` <= kBufSize more bytes at the returned cursor.
  char* room(std::size_t n) {
    if (kBufSize - len_ < n) flush();
    return buf_ + len_;
  }
  void put(char c) {
    *room(1) = c;
    ++len_;
  }
  void put(const char* s, std::size_t n) {
    if (n > kBufSize) {
      flush();
      out_.append(s, n);
      return;
    }
    std::memcpy(room(n), s, n);
    len_ += n;
  }
  void newline(int depth);
  void string(std::string_view s);
  void integer(std::int64_t v);
  void number(double d);

  std::string& out_;
  int indent_;
  std::size_t len_ = 0;
  char buf_[kBufSize];
};

void JsonWriter::newline(int depth) {
  if (indent_ < 0) return;
  put('\n');
  auto n = static_cast<std::size_t>(indent_) * static_cast<std::size_t>(depth);
  while (n > 0) {
    const std::size_t k = std::min(n, kBufSize);
    std::memset(room(k), ' ', k);
    len_ += k;
    n -= k;
  }
}

/// A quoted JSON string. Runs of bytes that need no escape (everything but
/// '"', '\\' and the controls below 0x20) are copied whole; 0x7f and
/// multi-byte UTF-8 pass through unescaped.
void JsonWriter::string(std::string_view s) {
  put('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    put(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': put("\\\"", 2); break;
      case '\\': put("\\\\", 2); break;
      case '\n': put("\\n", 2); break;
      case '\r': put("\\r", 2); break;
      case '\t': put("\\t", 2); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        put(esc, sizeof(esc));
      }
    }
  }
  put(s.data() + run, s.size() - run);
  put('"');
}

void JsonWriter::integer(std::int64_t v) {
  constexpr std::size_t kMax = 20;  // "-9223372036854775808"
  char* p = room(kMax);
  len_ += static_cast<std::size_t>(std::to_chars(p, p + kMax, v).ptr - p);
}

/// `d` exactly as printf("%.17g") writes it in the C locale, which is how
/// std::to_chars defines general format at precision 17. Integral values
/// below 1e15 print the same digits as the integer itself, so they take
/// the cheaper integer path (except -0.0, which %g writes as "-0").
void JsonWriter::number(double d) {
  if (!std::isfinite(d)) {
    put("null", 4);  // JSON has no Inf/NaN
    return;
  }
  if (d > -1e15 && d < 1e15) {
    const auto i = static_cast<std::int64_t>(d);
    if (static_cast<double>(i) == d && (i != 0 || !std::signbit(d))) {
      integer(i);
      return;
    }
  }
  constexpr std::size_t kMax = 32;  // "-1.2345678901234567e-308" is 24
  char* p = room(kMax);
  const auto res = std::to_chars(p, p + kMax, d, std::chars_format::general, 17);
  len_ += static_cast<std::size_t>(res.ptr - p);
}

void JsonWriter::value(const Json& v, int depth) {
  if (const auto* i = std::get_if<std::int64_t>(&v.value_)) {
    integer(*i);
  } else if (const auto* d = std::get_if<double>(&v.value_)) {
    number(*d);
  } else if (const auto* str = std::get_if<std::string>(&v.value_)) {
    string(*str);
  } else if (const auto* arr = std::get_if<JsonArray>(&v.value_)) {
    if (arr->empty()) {
      put("[]", 2);
      return;
    }
    put('[');
    for (std::size_t i = 0; i < arr->size(); ++i) {
      if (i > 0) put(',');
      newline(depth + 1);
      value((*arr)[i], depth + 1);
    }
    newline(depth);
    put(']');
  } else if (const auto* obj = std::get_if<JsonObject>(&v.value_)) {
    if (obj->empty()) {
      put("{}", 2);
      return;
    }
    put('{');
    for (std::size_t i = 0; i < obj->size(); ++i) {
      if (i > 0) put(',');
      newline(depth + 1);
      string((*obj)[i].first);
      if (indent_ < 0) {
        put(':');
      } else {
        put(": ", 2);
      }
      value((*obj)[i].second, depth + 1);
    }
    newline(depth);
    put('}');
  } else if (const auto* b = std::get_if<bool>(&v.value_)) {
    if (*b) {
      put("true", 4);
    } else {
      put("false", 5);
    }
  } else {
    put("null", 4);
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter writer(out, indent);
  writer.value(*this, 0);
  writer.flush();
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parseDocument() {
    Json v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + why);
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
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

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Json parseValue() {
    skipWs();
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return Json(parseString());
      case 't': parseLiteral("true"); return Json(true);
      case 'f': parseLiteral("false"); return Json(false);
      case 'n': parseLiteral("null"); return Json(nullptr);
      default: return parseNumber();
    }
  }

  void parseLiteral(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad hex digit in \\u escape");
            }
            // Encode BMP code point as UTF-8 (surrogates not supported).
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
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parseNumber() {
    const std::size_t start = pos_;
    if (consume('-')) { /* sign */ }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool isInt = true;
    if (consume('.')) {
      isInt = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      isInt = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
    }
    // from_chars, unlike stod, is locale-independent, needs no substring
    // copy and accepts subnormals, which the writer emits. Overflow
    // (1e400) and a token it cannot consume whole ("1e") fail.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (isInt) {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(first, last, v);
      if (ec == std::errc() && p == last) return Json(v);
    }
    double d = 0.0;
    auto [p, ec] = std::from_chars(first, last, d);
    if (ec != std::errc() || p != last) {
      fail("invalid number '" + std::string(first, last) + "'");
    }
    return Json(d);
  }

  Json parseObject() {
    expect('{');
    Json obj = Json::object();
    skipWs();
    if (consume('}')) return obj;
    while (true) {
      skipWs();
      std::string key = parseString();
      skipWs();
      expect(':');
      obj.set(key, parseValue());
      skipWs();
      if (consume('}')) return obj;
      expect(',');
    }
  }

  Json parseArray() {
    expect('[');
    Json arr = Json::array();
    skipWs();
    if (consume(']')) return arr;
    while (true) {
      arr.push(parseValue());
      skipWs();
      if (consume(']')) return arr;
      expect(',');
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parseDocument(); }

}  // namespace composim::falcon
