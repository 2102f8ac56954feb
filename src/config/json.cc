#include "config/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <utility>

#include "util/logging.h"

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

/**
 * Integral values below 1e15 print without a fraction; everything else
 * prints with 17 significant digits, enough to round-trip any double.
 * The text equals printf's "%.0f" / "%.17g" and ignores the locale.
 */
void
appendNumber(std::string &out, double value)
{
    char buffer[32];
    const auto [end, error] =
        value == std::floor(value) && std::fabs(value) < 1e15
            ? std::to_chars(buffer, buffer + sizeof(buffer), value,
                            std::chars_format::fixed, 0)
            : std::to_chars(buffer, buffer + sizeof(buffer), value,
                            std::chars_format::general, 17);
    if (error != std::errc())
        util::panic("cannot format JSON number ", value);
    out.append(buffer, end);
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
JsonValue::dumpTo(std::string &out, int indent, int depth) const
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
            array[i].dumpTo(out, indent, depth + 1);
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
            value.dumpTo(out, indent, depth + 1);
        }
        appendNewline(out, indent, depth);
        out += '}';
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
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
    std::ofstream out(path, std::ios::binary);
    if (!out)
        util::fatal("cannot write '", path, "'");
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.close();
    if (!out)
        util::fatal("failed writing '", path, "'");
}

void
saveJsonFile(const std::string &path, const JsonValue &value, int indent)
{
    std::string text = value.dump(indent);
    text += '\n';
    saveTextFile(path, text);
}

} // namespace act::config
