// Strict parsing of numeric command-line arguments for the swim_* tools.
#ifndef SWIM_TOOLS_NUMERIC_ARG_H_
#define SWIM_TOOLS_NUMERIC_ARG_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/string_util.h"

namespace swim {

/// Parses the whole of `text` as a T through ParseInt64 / ParseDouble.
/// A value that is not a number, has trailing characters, or does not fit
/// T (for doubles: is not finite) is rejected with a message on stderr
/// naming the argument `name`; callers then exit 2. Range checks beyond
/// the type are left to the library that consumes the value.
template <typename T>
bool ParseNumericArg(const char* name, std::string_view text, T* value) {
  if constexpr (std::is_floating_point_v<T>) {
    double parsed = 0.0;
    if (ParseDouble(text, &parsed) && std::isfinite(parsed)) {
      *value = static_cast<T>(parsed);
      return true;
    }
    std::fprintf(stderr, "invalid value for %s: '%s' (expected a number)\n",
                 name, std::string(text).c_str());
  } else {
    int64_t parsed = 0;
    if (ParseInt64(text, &parsed) && std::in_range<T>(parsed)) {
      *value = static_cast<T>(parsed);
      return true;
    }
    // Integer destinations are at most 64 bits wide; ParseInt64 caps the
    // top of an unsigned one at INT64_MAX.
    constexpr T kMax = std::numeric_limits<T>::max();
    std::fprintf(stderr,
                 "invalid value for %s: '%s' (expected an integer in "
                 "[%lld, %lld])\n",
                 name, std::string(text).c_str(),
                 static_cast<long long>(std::numeric_limits<T>::min()),
                 std::in_range<int64_t>(kMax)
                     ? static_cast<long long>(kMax)
                     : static_cast<long long>(
                           std::numeric_limits<int64_t>::max()));
  }
  return false;
}

}  // namespace swim

#endif  // SWIM_TOOLS_NUMERIC_ARG_H_
