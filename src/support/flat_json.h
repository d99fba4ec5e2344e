// One flat-JSON codec for every machine-written record in the project: sweep
// checkpoint lines, the farm's transport payloads and its artifacts index.
//
// "Flat" means one object level, {"k":v,...}, whose values are strings,
// numbers or booleans. Non-string values are returned verbatim as text; the
// caller converts them. The escaper is the one checkpoint lines have always
// used, so existing files stay byte-identical: '"', '\\', \n, \r and \t get
// their short escapes, every other control byte below 0x20 becomes \u00XX,
// and everything else (including UTF-8) passes through unchanged.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace omx::flat_json {

using Fields = std::vector<std::pair<std::string, std::string>>;
using Object = std::map<std::string, std::string>;

/// Append `s` to `out` with JSON string escaping (no surrounding quotes).
void append_escaped(std::string* out, std::string_view s);
std::string escape(std::string_view s);

/// {"k":"v",...} with every value a string; preserves field order.
std::string encode(const Fields& fields);

/// Parse one flat object. String values are unescaped; number and boolean
/// values are returned as their literal text. Returns false on anything
/// malformed: a torn line, a bad escape (a \u must carry four hex digits
/// naming an ASCII code point), a nested value or trailing bytes.
bool parse(std::string_view text, Object* out);

/// obj[key], or "" when absent.
std::string get(const Object& obj, const std::string& key);

}  // namespace omx::flat_json
