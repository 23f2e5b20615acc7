// Tiny string helpers shared by error-message formatting and the
// command-line tools.
#ifndef KSPDG_CORE_STRINGS_H_
#define KSPDG_CORE_STRINGS_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

namespace kspdg {

/// "a, b, c" — for listing known names in error messages.
inline std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    joined += joined.empty() ? name : ", " + name;
  }
  return joined;
}

/// The command-line tools' number parser: the whole of `token` as a T that
/// is at least `min`, or "invalid value for FLAG: 'TOKEN'" on stderr and
/// exit 2. std::from_chars rejects trailing characters, a sign on an
/// unsigned T and out-of-range values instead of wrapping them.
template <typename T>
T ParseNumber(const std::string& flag, const char* token,
              T min = std::numeric_limits<T>::lowest()) {
  T value{};
  const char* end = token + std::strlen(token);
  auto [parsed_end, error] = std::from_chars(token, end, value);
  if (error != std::errc() || parsed_end != end || value < min) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(), token);
    std::exit(2);
  }
  return value;
}

}  // namespace kspdg

#endif  // KSPDG_CORE_STRINGS_H_
