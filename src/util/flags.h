// Tiny argv helpers shared by the bench binaries and the bbench CLI:
// exact-match boolean flags ("--full") and "--key=value" flags
// ("--jobs=8", "--json=out.json"). No registry, no allocation beyond
// the returned value — just enough parsing for ~25 small mains to agree
// on one syntax.

#ifndef BLOCKBENCH_UTIL_FLAGS_H_
#define BLOCKBENCH_UTIL_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace bb::util {

/// True when the exact flag (e.g. "--full") is among the args.
inline bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// Returns the value of a "--key=value" flag given its key (e.g.
/// "--jobs"), or nullopt when absent. The last occurrence wins.
inline std::optional<std::string> FlagValue(int argc, char** argv,
                                            const std::string& key) {
  std::optional<std::string> value;
  const std::string prefix = key + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) value = arg.substr(prefix.size());
  }
  return value;
}

/// Strict whole-string parses: false on empty input, trailing garbage or
/// (for ParseUint) a sign.
inline bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return *end == '\0';
}

inline bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return *end == '\0';
}

/// A malformed flag value is a usage error: name the flag and exit 2
/// rather than run a configuration nobody asked for.
[[noreturn]] inline void MalformedFlag(const std::string& key,
                                       const std::string& value,
                                       const char* expected) {
  std::fprintf(stderr, "%s: malformed value '%s' (expected %s)\n",
               key.c_str(), value.c_str(), expected);
  std::exit(2);
}

/// "--key=N" parsed as uint64, or `fallback` when absent; exits 2 when
/// the value is malformed.
inline uint64_t FlagUint(int argc, char** argv, const std::string& key,
                         uint64_t fallback) {
  auto v = FlagValue(argc, argv, key);
  if (!v) return fallback;
  uint64_t n = 0;
  if (!ParseUint(*v, &n)) MalformedFlag(key, *v, "an unsigned integer");
  return n;
}

/// "--key=X" parsed as double, or `fallback` when absent; exits 2 when
/// the value is malformed.
inline double FlagDouble(int argc, char** argv, const std::string& key,
                         double fallback) {
  auto v = FlagValue(argc, argv, key);
  if (!v) return fallback;
  double d = 0;
  if (!ParseDouble(*v, &d)) MalformedFlag(key, *v, "a number");
  return d;
}

}  // namespace bb::util

#endif  // BLOCKBENCH_UTIL_FLAGS_H_
