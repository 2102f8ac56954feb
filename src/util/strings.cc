#include "util/strings.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace act::util {

std::vector<std::string>
split(std::string_view text, char delimiter)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(delimiter, start);
        if (pos == std::string_view::npos) {
            fields.emplace_back(text.substr(start));
            return fields;
        }
        fields.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::string_view
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

std::string
formatFixed(double value, int decimals)
{
    char buffer[64];
    const int length =
        std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    if (length >= 0 && static_cast<std::size_t>(length) < sizeof(buffer))
        return buffer;
    // Around 1e60 and up the fixed form no longer fits: print the
    // exponent form rather than a truncated run of digits.
    std::snprintf(buffer, sizeof(buffer), "%.*e", decimals, value);
    return buffer;
}

std::string
formatSig(double value, int significant_digits)
{
    if (value == 0.0)
        return "0";
    const double magnitude = std::fabs(value);
    char buffer[64];
    if (magnitude >= 1e6 || magnitude < 1e-4) {
        std::snprintf(buffer, sizeof(buffer), "%.*e",
                      significant_digits - 1, value);
        return buffer;
    }
    const int leading_exponent =
        static_cast<int>(std::floor(std::log10(magnitude)));
    const int decimals =
        std::max(0, significant_digits - leading_exponent - 1);
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    return buffer;
}

std::string
join(const std::vector<std::string> &parts, std::string_view separator)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out << separator;
        out << parts[i];
    }
    return out.str();
}

} // namespace act::util
