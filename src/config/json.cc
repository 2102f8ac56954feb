#include "config/json.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/logging.h"
#include "util/output_file.h"

namespace act::config {

JsonParseError::JsonParseError(const std::string &message, int line,
                               int column)
    : std::runtime_error(message + " at line " + std::to_string(line) +
                         ", column " + std::to_string(column)),
      message_(message), line_(line), column_(column)
{}

namespace {

/** Recursive-descent JSON parser over a string_view. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        skipWhitespace();
        JsonValue value = parseValue();
        skipWhitespace();
        if (!atEnd())
            raise("trailing characters after JSON document");
        return value;
    }

  private:
    std::string_view text_;
    std::size_t pos_ = 0;

    bool atEnd() const { return pos_ >= text_.size(); }

    char
    peek() const
    {
        if (atEnd())
            raise("unexpected end of input");
        return text_[pos_];
    }

    char
    advance()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    /**
     * Raise at the current offset. Line and column (1-based, in bytes)
     * are derived from the text consumed so far.
     */
    [[noreturn]] void
    raise(const std::string &message) const
    {
        const std::string_view consumed = text_.substr(0, pos_);
        const std::size_t last_newline = consumed.rfind('\n');
        const std::size_t line_start =
            last_newline == std::string_view::npos ? 0 : last_newline + 1;
        const auto line = 1 + std::count(consumed.begin(),
                                         consumed.end(), '\n');
        throw JsonParseError(message, static_cast<int>(line),
                             static_cast<int>(pos_ - line_start) + 1);
    }

    void
    skipWhitespace()
    {
        while (!atEnd()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                advance();
            } else if (c == '/' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == '/') {
                while (!atEnd() && text_[pos_] != '\n')
                    advance();
            } else {
                break;
            }
        }
    }

    void
    expect(char c)
    {
        if (atEnd() || text_[pos_] != c)
            raise(std::string("expected '") + c + "'");
        advance();
    }

    bool
    consumeIf(char c)
    {
        if (!atEnd() && text_[pos_] == c) {
            advance();
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        skipWhitespace();
        const char c = peek();
        switch (c) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return JsonValue(parseString());
          case 't':
          case 'f':
            return parseBool();
          case 'n':
            parseLiteral("null");
            return JsonValue(nullptr);
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            raise("unexpected character");
        }
    }

    void
    parseLiteral(std::string_view literal)
    {
        for (char expected : literal) {
            if (atEnd() || text_[pos_] != expected)
                raise(std::string("invalid literal, expected '") +
                      std::string(literal) + "'");
            advance();
        }
    }

    JsonValue
    parseBool()
    {
        if (peek() == 't') {
            parseLiteral("true");
            return JsonValue(true);
        }
        parseLiteral("false");
        return JsonValue(false);
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (consumeIf('-')) {}
        while (!atEnd() && std::isdigit(static_cast<unsigned char>(
                               text_[pos_]))) {
            advance();
        }
        if (consumeIf('.')) {
            while (!atEnd() && std::isdigit(static_cast<unsigned char>(
                                   text_[pos_]))) {
                advance();
            }
        }
        if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            advance();
            if (!atEnd() && (text_[pos_] == '+' || text_[pos_] == '-'))
                advance();
            while (!atEnd() && std::isdigit(static_cast<unsigned char>(
                                   text_[pos_]))) {
                advance();
            }
        }
        const std::string_view token = text_.substr(start, pos_ - start);
        double value = 0.0;
        const auto [end, error] =
            std::from_chars(token.data(), token.data() + token.size(),
                            value);
        if (error != std::errc() || end != token.data() + token.size())
            raise("malformed number '" + std::string(token) + "'");
        return JsonValue(value);
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (atEnd())
                raise("unterminated string");
            const char c = advance();
            if (c == '"')
                return out;
            if (c == '\\') {
                const char escape = advance();
                switch (escape) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': out += parseUnicodeEscape(); break;
                  default: raise("invalid escape sequence");
                }
            } else {
                out += c;
            }
        }
    }

    std::string
    parseUnicodeEscape()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = advance();
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                raise("invalid \\u escape");
        }
        // Encode as UTF-8 (basic multilingual plane only; surrogate
        // pairs are not needed for ACT config files).
        std::string out;
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
        return out;
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonArray array;
        skipWhitespace();
        if (consumeIf(']'))
            return JsonValue(std::move(array));
        while (true) {
            array.push_back(parseValue());
            skipWhitespace();
            if (consumeIf(',')) {
                skipWhitespace();
                if (consumeIf(']'))  // trailing comma
                    return JsonValue(std::move(array));
                continue;
            }
            expect(']');
            return JsonValue(std::move(array));
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonObject object;
        skipWhitespace();
        if (consumeIf('}'))
            return JsonValue(std::move(object));
        while (true) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            object[std::move(key)] = parseValue();
            skipWhitespace();
            if (consumeIf(',')) {
                skipWhitespace();
                if (consumeIf('}'))  // trailing comma
                    return JsonValue(std::move(object));
                continue;
            }
            expect('}');
            return JsonValue(std::move(object));
        }
    }
};

void
appendEscaped(std::string &out, const std::string &text)
{
    out += '"';
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static constexpr char kHex[] = "0123456789abcdef";
                out += "\\u00";
                out += kHex[(c >> 4) & 0xF];
                out += kHex[c & 0xF];
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** 5^k for k in [0, 22]: every power the 17-digit window scales by. */
constexpr auto kPow5 = [] {
    std::array<std::uint64_t, 23> table{};
    table[0] = 1;
    for (std::size_t k = 1; k < table.size(); ++k)
        table[k] = table[k - 1] * 5;
    return table;
}();

constexpr std::uint64_t kTen17 = 100'000'000'000'000'000;

/** "00".."99", for writing two digits per division. */
constexpr auto kDigitPairs = [] {
    std::array<char, 200> pairs{};
    for (std::size_t i = 0; i < 100; ++i) {
        pairs[2 * i] = static_cast<char>('0' + i / 10);
        pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
    }
    return pairs;
}();

/**
 * printf's "%.17g" for finite |value| in [1e-5, 1e17), by exact integer
 * arithmetic; returns nullptr (writing nothing) outside that window.
 *
 * With value = m * 2^e (m < 2^53) and X = floor(log10|value|), the 17
 * significant digits are round(m * 5^p * 2^(e+p)) for p = 16 - X. In
 * the window p <= 22, so m * 5^p < 2^105 is exact in 128 bits, and the
 * shift leaves an exact remainder to round half to even from -- the
 * same rounding glibc's printf and std::to_chars apply.
 */
char *
formatG17Window(char *out, double value)
{
    const double magnitude = std::fabs(value);
    if (!(magnitude >= 1e-5 && magnitude < 1e17))
        return nullptr;
    const auto bits = std::bit_cast<std::uint64_t>(value);
    const std::uint64_t m =
        (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
    const int e = static_cast<int>((bits >> 52) & 0x7FF) - 1075;

    // |value| is in [2^(e+52), 2^(e+53)), so floor((e+52) * log10 2)
    // is X or X - 1; one retry at a ten times smaller scale corrects
    // it. (78913 / 2^18 gives that floor exactly for |e+52| < 1000.)
    int exponent = ((e + 52) * 78913) >> 18;
    unsigned __int128 quotient = 0;
    bool round_up = false;
    for (;;) {
        const int p = 16 - exponent;
        const unsigned __int128 scaled =
            static_cast<unsigned __int128>(m) * kPow5[p];
        const int shift = e + p;
        if (shift >= 0) {
            quotient = scaled << shift;
            round_up = false;
        } else {
            quotient = scaled >> -shift;
            const unsigned __int128 half = static_cast<unsigned __int128>(1)
                                           << (-shift - 1);
            const unsigned __int128 remainder =
                scaled & ((half << 1) - 1);
            round_up = remainder > half ||
                       (remainder == half && (quotient & 1) != 0);
        }
        if (quotient < kTen17)
            break;
        ++exponent;
    }
    // Rounding never carries into an 18th digit: that would need
    // |value| within a relative 5e-18 below 10^(X+1), and the nearest
    // double below a power of ten is at least 2^-53 (1.1e-16) away.
    std::uint64_t digits = static_cast<std::uint64_t>(quotient) + round_up;

    char text[17];
    for (int i = 15; i > 0; i -= 2) {
        std::memcpy(text + i, &kDigitPairs[2 * (digits % 100)], 2);
        digits /= 100;
    }
    text[0] = static_cast<char>('0' + digits);
    int length = 17;
    while (text[length - 1] == '0')
        --length;

    if (value < 0)
        *out++ = '-';
    if (exponent >= 0) {
        // Fixed, the integer part kept whole (X <= 16).
        const int whole = exponent + 1;
        out = std::copy(text, text + whole, out);
        if (length > whole) {
            *out++ = '.';
            out = std::copy(text + whole, text + length, out);
        }
    } else if (exponent >= -4) {
        *out++ = '0';
        *out++ = '.';
        out = std::fill_n(out, -exponent - 1, '0');
        out = std::copy(text, text + length, out);
    } else {
        // X = -5, the window's one exponent form: d.ddde-05.
        *out++ = text[0];
        if (length > 1) {
            *out++ = '.';
            out = std::copy(text + 1, text + length, out);
        }
        out = std::copy_n("e-05", 4, out);
    }
    return out;
}

/**
 * Integral values below 1e15 print without a fraction; everything else
 * prints with 17 significant digits, enough to round-trip any double.
 * The text equals printf's "%.0f" / "%.17g" and ignores the locale.
 * Values outside formatG17Window() (subnormals, very small or large
 * magnitudes, inf, nan) go through std::to_chars.
 */
void
appendNumber(std::string &out, double value)
{
    char buffer[32];
    std::to_chars_result result{nullptr, std::errc()};
    if (value == std::floor(value) && std::fabs(value) < 1e15) {
        result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                               std::chars_format::fixed, 0);
    } else if ((result.ptr = formatG17Window(buffer, value)) == nullptr) {
        result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                               std::chars_format::general, 17);
    }
    if (result.ec != std::errc())
        util::panic("cannot format JSON number ", value);
    out.append(buffer, result.ptr);
}

/** Line break plus @p depth levels of indentation; none when compact. */
void
appendNewline(std::string &out, int indent, int depth)
{
    if (indent > 0) {
        out += '\n';
        out.append(static_cast<std::size_t>(indent) *
                       static_cast<std::size_t>(depth),
                   ' ');
    }
}

/** saveJsonFile()'s buffer size: large enough that each write() moves
 *  a megabyte, small enough that a 28 MB document never sits in memory
 *  as text. */
constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

/** Hand a full buffer to the sink and start it over. */
void
drainIfFull(std::string &out, util::OutputFile *sink)
{
    if (sink != nullptr && out.size() >= kFlushBytes) {
        sink->write(out);
        out.clear();
    }
}

} // namespace

bool
JsonValue::asBool() const
{
    if (!isBool())
        throw JsonTypeError("JSON value is not a boolean");
    return std::get<bool>(data_);
}

double
JsonValue::asNumber() const
{
    if (!isNumber())
        throw JsonTypeError("JSON value is not a number");
    return std::get<double>(data_);
}

std::int64_t
JsonValue::asInteger() const
{
    const double value = asNumber();
    if (value != std::floor(value))
        throw JsonTypeError("JSON number is not integral");
    // 2^63 is exact as a double; every integral double in
    // [-2^63, 2^63) fits, and the cast outside it is undefined.
    constexpr double kLimit = 9223372036854775808.0;
    if (!(value >= -kLimit && value < kLimit))
        throw JsonTypeError("JSON number out of integer range");
    return static_cast<std::int64_t>(value);
}

const std::string &
JsonValue::asString() const
{
    if (!isString())
        throw JsonTypeError("JSON value is not a string");
    return std::get<std::string>(data_);
}

const JsonArray &
JsonValue::asArray() const
{
    if (!isArray())
        throw JsonTypeError("JSON value is not an array");
    return std::get<JsonArray>(data_);
}

JsonArray &
JsonValue::asArray()
{
    if (!isArray())
        throw JsonTypeError("JSON value is not an array");
    return std::get<JsonArray>(data_);
}

const JsonObject &
JsonValue::asObject() const
{
    if (!isObject())
        throw JsonTypeError("JSON value is not an object");
    return std::get<JsonObject>(data_);
}

JsonObject &
JsonValue::asObject()
{
    if (!isObject())
        throw JsonTypeError("JSON value is not an object");
    return std::get<JsonObject>(data_);
}

bool
JsonValue::contains(const std::string &key) const
{
    return isObject() && asObject().count(key) > 0;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonObject &object = asObject();
    const auto it = object.find(key);
    if (it == object.end())
        throw JsonTypeError("missing JSON key '" + key + "'");
    return it->second;
}

JsonValue &
JsonValue::at(const std::string &key)
{
    return const_cast<JsonValue &>(std::as_const(*this).at(key));
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    return contains(key) ? at(key).asNumber() : fallback;
}

namespace {

/** @p value.asInteger(), its error prefixed with member @p key. */
std::int64_t
memberInteger(const JsonValue &value, const std::string &key)
{
    try {
        return value.asInteger();
    } catch (const JsonTypeError &error) {
        throw JsonTypeError("field '" + key + "': " + error.what());
    }
}

} // namespace

std::int64_t
JsonValue::integerOr(const std::string &key, std::int64_t fallback) const
{
    return contains(key) ? memberInteger(at(key), key) : fallback;
}

std::uint64_t
JsonValue::countAt(const std::string &key) const
{
    const std::int64_t count = memberInteger(at(key), key);
    if (count < 0)
        throw JsonTypeError("field '" + key + "' is negative");
    return static_cast<std::uint64_t>(count);
}

std::uint64_t
JsonValue::countOr(const std::string &key, std::uint64_t fallback) const
{
    return contains(key) ? countAt(key) : fallback;
}

bool
JsonValue::boolOr(const std::string &key, bool fallback) const
{
    return contains(key) ? at(key).asBool() : fallback;
}

std::string
JsonValue::stringOr(const std::string &key, const std::string &fallback) const
{
    return contains(key) ? at(key).asString() : fallback;
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth,
                  util::OutputFile *sink) const
{
    if (isNull()) {
        out += "null";
    } else if (isBool()) {
        out += asBool() ? "true" : "false";
    } else if (isNumber()) {
        appendNumber(out, asNumber());
    } else if (isString()) {
        appendEscaped(out, asString());
    } else if (isArray()) {
        const JsonArray &array = asArray();
        if (array.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (std::size_t i = 0; i < array.size(); ++i) {
            if (i > 0)
                out += ',';
            appendNewline(out, indent, depth + 1);
            array[i].dumpTo(out, indent, depth + 1, sink);
            drainIfFull(out, sink);
        }
        appendNewline(out, indent, depth);
        out += ']';
    } else {
        const JsonObject &object = asObject();
        if (object.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        bool first = true;
        for (const auto &[key, value] : object) {
            if (!first)
                out += ',';
            first = false;
            appendNewline(out, indent, depth + 1);
            appendEscaped(out, key);
            out += indent > 0 ? ": " : ":";
            value.dumpTo(out, indent, depth + 1, sink);
            drainIfFull(out, sink);
        }
        appendNewline(out, indent, depth);
        out += '}';
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0, nullptr);
    return out;
}

JsonValue
JsonValue::parse(std::string_view text)
{
    Parser parser(text);
    return parser.parseDocument();
}

JsonValue
loadJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        util::fatal("cannot open JSON file '", path, "'");
    const std::streamoff size = in.tellg();
    if (size < 0)
        util::fatal("cannot size JSON file '", path, "'");
    std::string text(static_cast<std::size_t>(size), '\0');
    in.seekg(0);
    if (!in.read(text.data(), size))
        util::fatal("cannot read JSON file '", path, "'");
    try {
        return JsonValue::parse(text);
    } catch (const JsonParseError &error) {
        util::fatal(path, ":", error.line(), ":", error.column(), ": ",
                    error.message());
    }
}

void
saveTextFile(const std::string &path, std::string_view text)
{
    util::OutputFile file(path);
    file.write(text);
    file.close();
}

void
saveJsonFile(const std::string &path, const JsonValue &value, int indent)
{
    util::OutputFile file(path);
    std::string buffer;
    buffer.reserve(kFlushBytes + kFlushBytes / 8);
    value.dumpTo(buffer, indent, 0, &file);
    buffer += '\n';
    file.write(buffer);
    file.close();
}

} // namespace act::config
