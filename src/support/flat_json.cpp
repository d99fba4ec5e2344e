#include "support/flat_json.h"

#include <cstdio>

namespace omx::flat_json {

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool object(Object* out) {
    skip_ws();
    if (!eat('{')) return false;
    skip_ws();
    if (!eat('}')) {
      for (;;) {
        std::string key, value;
        skip_ws();
        if (!string(&key)) return false;
        skip_ws();
        if (!eat(':')) return false;
        skip_ws();
        if (!(peek('"') ? string(&value) : literal(&value))) return false;
        (*out)[key] = std::move(value);
        skip_ws();
        if (eat('}')) break;
        if (!eat(',')) return false;
      }
    }
    skip_ws();
    return i_ == text_.size();
  }

 private:
  bool peek(char c) const { return i_ < text_.size() && text_[i_] == c; }
  bool eat(char c) {
    if (!peek(c)) return false;
    ++i_;
    return true;
  }
  void skip_ws() {
    while (i_ < text_.size() && (text_[i_] == ' ' || text_[i_] == '\t' ||
                                 text_[i_] == '\n' || text_[i_] == '\r')) {
      ++i_;
    }
  }

  bool string(std::string* s) {
    if (!eat('"')) return false;
    while (i_ < text_.size() && text_[i_] != '"') {
      const char c = text_[i_++];
      if (c != '\\') {
        *s += c;
        continue;
      }
      if (i_ >= text_.size()) return false;
      switch (text_[i_++]) {
        case '"': *s += '"'; break;
        case '\\': *s += '\\'; break;
        case '/': *s += '/'; break;
        case 'n': *s += '\n'; break;
        case 'r': *s += '\r'; break;
        case 't': *s += '\t'; break;
        case 'u': {
          if (i_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const int d = hex_digit(text_[i_++]);
            if (d < 0) return false;
            code = code << 4 | static_cast<unsigned>(d);
          }
          // The escaper writes \u only for control bytes, so only ASCII
          // comes back this way; anything else is not this codec's output.
          if (code >= 0x80) return false;
          *s += static_cast<char>(code);
          break;
        }
        default: return false;
      }
    }
    return eat('"');
  }

  /// A number or boolean: everything up to the next delimiter, verbatim.
  bool literal(std::string* s) {
    const std::size_t start = i_;
    while (i_ < text_.size() && text_[i_] != ',' && text_[i_] != '}') ++i_;
    std::string_view raw = text_.substr(start, i_ - start);
    while (!raw.empty() && (raw.back() == ' ' || raw.back() == '\t')) {
      raw.remove_suffix(1);
    }
    if (raw.empty() || raw.front() == '{' || raw.front() == '[') return false;
    s->assign(raw);
    return true;
  }

  std::string_view text_;
  std::size_t i_ = 0;
};

}  // namespace

void append_escaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  append_escaped(&out, s);
  return out;
}

std::string encode(const Fields& fields) {
  std::string out = "{";
  for (const auto& [k, v] : fields) {
    if (out.size() > 1) out += ',';
    out += '"';
    append_escaped(&out, k);
    out += "\":\"";
    append_escaped(&out, v);
    out += '"';
  }
  out += '}';
  return out;
}

bool parse(std::string_view text, Object* out) {
  out->clear();
  return Parser(text).object(out);
}

std::string get(const Object& obj, const std::string& key) {
  const auto it = obj.find(key);
  return it == obj.end() ? std::string() : it->second;
}

}  // namespace omx::flat_json
