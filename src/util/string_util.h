// Small string helpers shared by CSV parsing and report formatting.

#ifndef FUME_UTIL_STRING_UTIL_H_
#define FUME_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fume {

/// Splits on a delimiter; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Joins parts with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Parses a double; returns false on malformed/trailing garbage.
bool ParseDouble(std::string_view s, double* out);

/// Parses a base-10 int; returns false on malformed/trailing garbage or a
/// value outside int's range (never wraps or truncates).
bool ParseInt(std::string_view s, int* out);

/// ParseInt for int64_t.
bool ParseInt64(std::string_view s, int64_t* out);

/// ParseInt for uint64_t; a minus sign is malformed, so "-1" never wraps to
/// UINT64_MAX.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Formats a double with the given number of decimals ("3.14").
std::string FormatDouble(double v, int decimals);

/// Formats a fraction as a percentage string ("12.70%").
std::string FormatPercent(double fraction, int decimals = 2);

}  // namespace fume

#endif  // FUME_UTIL_STRING_UTIL_H_
