#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace swim {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view delimiter) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result.append(delimiter);
    result.append(parts[i]);
  }
  return result;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string result(text);
  for (char& c : result) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return result;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string FirstWordOfJobName(std::string_view job_name) {
  std::string word;
  for (char c : job_name) {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      word.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!word.empty()) {
      break;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      // Names that begin with digits (timestamps etc.) still have their
      // first alphabetic word extracted after the digits, so keep scanning.
      continue;
    }
  }
  return word;
}

namespace {

/// The strtod route ParseDouble takes for what from_chars refuses: a
/// leading '+', hex floats, inf/nan, overflow and underflow to zero.
bool ParseDoubleWithStrtod(std::string_view stripped, double* value) {
  const std::string buffer(stripped);
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return false;
  // ERANGE with an infinite result is a genuine overflow; ERANGE with a
  // finite result is gradual underflow to a subnormal (e.g. 5e-324), which
  // must parse so extreme doubles round-trip through CSV.
  if (errno != 0 && (errno != ERANGE || !std::isfinite(parsed))) return false;
  *value = parsed;
  return true;
}

}  // namespace

bool ParseDouble(std::string_view text, double* value) {
  const std::string_view stripped = StripWhitespace(text);
  if (stripped.empty()) return false;
  // from_chars is correctly rounded, as strtod is, and needs no
  // NUL-terminated copy. A finite result it fully accepts is the value
  // strtod gives; everything else (including a NaN, whose payload
  // from_chars drops) takes the strtod route, so the accepted set and every
  // value stay exactly strtod's.
  const char* last = stripped.data() + stripped.size();
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(stripped.data(), last, parsed);
  if (ec == std::errc() && ptr == last && std::isfinite(parsed)) {
    *value = parsed;
    return true;
  }
  return ParseDoubleWithStrtod(stripped, value);
}

bool ParseInt64(std::string_view text, int64_t* value) {
  std::string_view stripped = StripWhitespace(text);
  // strtoll's syntax is from_chars' plus one explicit leading '+'.
  if (stripped.size() > 1 && stripped[0] == '+' && stripped[1] != '-') {
    stripped.remove_prefix(1);
  }
  const char* last = stripped.data() + stripped.size();
  int64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(stripped.data(), last, parsed);
  if (ec != std::errc() || ptr != last) return false;
  *value = parsed;
  return true;
}

}  // namespace swim
