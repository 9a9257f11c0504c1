#include "query/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace storm::query::json {
namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* err) : text_(text), err_(err) {}

  bool run(Value& out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* what) {
    if (err_ != nullptr && err_->empty()) {
      *err_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        out.kind = Value::Kind::Null;
        return literal("null") || fail("bad literal");
      case 't':
        out.kind = Value::Kind::Bool;
        out.boolean = true;
        return literal("true") || fail("bad literal");
      case 'f':
        out.kind = Value::Kind::Bool;
        out.boolean = false;
        return literal("false") || fail("bad literal");
      case '"':
        out.kind = Value::Kind::String;
        return string(out.string);
      case '[':
        return array(out, depth);
      case '{':
        return object(out, depth);
      default:
        return number(out);
    }
  }

  bool string(std::string& out) {
    if (!eat('"')) return fail("expected string");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // Snapshots only emit \u00XX for control bytes; decode the
            // BMP code point as a raw byte when it fits, else '?'.
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              v <<= 4;
              if (h >= '0' && h <= '9') {
                v |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                v |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                v |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return fail("bad \\u escape");
              }
            }
            out += v < 256 ? static_cast<char>(v) : '?';
            break;
          }
          default:
            return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool number(Value& out) {
    const std::size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t digits = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ - digits > 1 && text_[digits] == '0') {
      return fail("leading zero");  // strict JSON: 01 is not a number
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") return fail("expected value");
    char* end = nullptr;
    out.kind = Value::Kind::Number;
    out.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("bad number");
    if (integral) {
      out.integral = true;
      out.negative = token[0] == '-';
      const char* last = token.data() + token.size();
      const std::from_chars_result r =
          out.negative ? std::from_chars(token.data(), last, out.integer)
                       : std::from_chars(token.data(), last, out.uinteger);
      if (r.ec != std::errc{} || r.ptr != last) {
        return fail("integer out of range");
      }
    }
    return true;
  }

  bool array(Value& out, int depth) {
    eat('[');
    out.kind = Value::Kind::Array;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      Value v;
      skip_ws();
      if (!value(v, depth + 1)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return fail("expected ',' or ']'");
    }
  }

  bool object(Value& out, int depth) {
    eat('{');
    out.kind = Value::Kind::Object;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!eat(':')) return fail("expected ':'");
      Value v;
      skip_ws();
      if (!value(v, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string* err_;
};

}  // namespace

bool parse(std::string_view text, Value& out, std::string* err) {
  if (err != nullptr) err->clear();
  return Parser(text, err).run(out);
}

}  // namespace storm::query::json
