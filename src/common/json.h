// JSON string escaping shared by every --json report writer.

#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace common {

// Escapes `s` for a JSON string literal: quote, backslash, newline and tab
// get their short escapes, any other control character becomes \u00XX.
std::string JsonEscape(std::string_view s);

}  // namespace common

#endif  // SRC_COMMON_JSON_H_
