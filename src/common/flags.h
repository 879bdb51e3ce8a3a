// The tools' command-line flags: `--name=value` matching and strict unsigned
// decimal values.

#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace common {

// True when `arg` is `name=<value>`; the value goes to *out.
inline bool FlagValue(const char* arg, const char* name, std::string* out) {
  const size_t n = strlen(name);
  if (strncmp(arg, name, n) != 0 || arg[n] != '=') {
    return false;
  }
  *out = arg + n + 1;
  return true;
}

// A whole unsigned decimal no larger than `max`: one or more digits and
// nothing else (no sign, space or suffix).
inline bool ParseUint(const std::string& s, uint64_t max, uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    const uint64_t d = static_cast<uint64_t>(c - '0');
    if (c < '0' || c > '9' || d > max || v > (max - d) / 10) {
      return false;
    }
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

// True when `arg` is `name=<n>`, with n in *out. A value ParseUint rejects
// is a usage error: the tool says so and exits with status 2.
template <typename T>
bool UintFlag(const char* arg, const char* name, T* out,
              uint64_t max = std::numeric_limits<T>::max()) {
  std::string v;
  uint64_t n = 0;
  if (!FlagValue(arg, name, &v)) {
    return false;
  }
  if (!ParseUint(v, max, &n)) {
    fprintf(stderr, "%s: expected an unsigned integer no larger than %llu, got '%s'\n", name,
            static_cast<unsigned long long>(max), v.c_str());
    exit(2);
  }
  *out = static_cast<T>(n);
  return true;
}

}  // namespace common

#endif  // SRC_COMMON_FLAGS_H_
