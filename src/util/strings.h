/**
 * @file
 * Small string utilities shared across the library: splitting, trimming,
 * case folding, and numeric formatting for report output.
 */

#ifndef ACT_UTIL_STRINGS_H
#define ACT_UTIL_STRINGS_H

#include <string>
#include <string_view>
#include <vector>

namespace act::util {

/** Split on a delimiter character; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char delimiter);

/** Strip leading and trailing ASCII whitespace. */
std::string_view trim(std::string_view text);

/** ASCII lower-case copy. */
std::string toLower(std::string_view text);

/** True when @p text begins with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/**
 * Format with fixed decimal places, e.g. formatFixed(1.234, 2) ->
 * "1.23"; a value whose fixed form passes 63 characters prints in
 * exponent form with the same decimals (formatFixed(1e300, 1) ->
 * "1.0e+300").
 */
std::string formatFixed(double value, int decimals);

/**
 * Format with a fixed number of significant digits, choosing fixed or
 * scientific notation based on magnitude; used for table output.
 */
std::string formatSig(double value, int significant_digits);

/** Join elements with a separator. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view separator);

} // namespace act::util

#endif // ACT_UTIL_STRINGS_H
