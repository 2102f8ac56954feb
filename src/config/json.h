/**
 * @file
 * A self-contained JSON value type, parser, and serializer.
 *
 * The released ACT tool drives its model from configuration files; this
 * reproduction does the same without external dependencies. The parser
 * accepts standard JSON plus two conveniences common in config files:
 * '//' line comments and trailing commas.
 */

#ifndef ACT_CONFIG_JSON_H
#define ACT_CONFIG_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace act::util {
class OutputFile;
} // namespace act::util

namespace act::config {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/** std::map keeps keys ordered so serialization is deterministic. */
using JsonObject = std::map<std::string, JsonValue>;

/** Thrown on malformed input, with 1-based line/column coordinates. */
class JsonParseError : public std::runtime_error
{
  public:
    JsonParseError(const std::string &message, int line, int column);

    int line() const { return line_; }
    int column() const { return column_; }
    /** The message without its location suffix. */
    const std::string &message() const { return message_; }

  private:
    std::string message_;
    int line_;
    int column_;
};

/** Thrown when a value is accessed as the wrong type or a key is absent. */
class JsonTypeError : public std::runtime_error
{
  public:
    explicit JsonTypeError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/**
 * A JSON document node: null, bool, number (double), string, array, or
 * object. Accessors are checked and throw JsonTypeError on mismatch.
 */
class JsonValue
{
  public:
    JsonValue() : data_(nullptr) {}
    JsonValue(std::nullptr_t) : data_(nullptr) {}
    JsonValue(bool b) : data_(b) {}
    JsonValue(double d) : data_(d) {}
    JsonValue(int i) : data_(static_cast<double>(i)) {}
    JsonValue(const char *s) : data_(std::string(s)) {}
    JsonValue(std::string s) : data_(std::move(s)) {}
    JsonValue(JsonArray a) : data_(std::move(a)) {}
    JsonValue(JsonObject o) : data_(std::move(o)) {}

    bool isNull() const { return std::holds_alternative<std::nullptr_t>(data_); }
    bool isBool() const { return std::holds_alternative<bool>(data_); }
    bool isNumber() const { return std::holds_alternative<double>(data_); }
    bool isString() const
    { return std::holds_alternative<std::string>(data_); }
    bool isArray() const { return std::holds_alternative<JsonArray>(data_); }
    bool isObject() const
    { return std::holds_alternative<JsonObject>(data_); }

    bool asBool() const;
    double asNumber() const;
    /** asNumber() narrowed; throws if not integral. */
    std::int64_t asInteger() const;
    const std::string &asString() const;
    const JsonArray &asArray() const;
    JsonArray &asArray();
    const JsonObject &asObject() const;
    JsonObject &asObject();

    /** True when this is an object containing @p key. */
    bool contains(const std::string &key) const;

    /** Checked object member access; throws when absent. */
    const JsonValue &at(const std::string &key) const;
    JsonValue &at(const std::string &key);

    /** Object member access with a fallback default. */
    double numberOr(const std::string &key, double fallback) const;
    /** As numberOr, through asInteger(); errors name @p key. */
    std::int64_t integerOr(const std::string &key,
                           std::int64_t fallback) const;
    /**
     * Member @p key as a count: an integral, non-negative number in
     * range. Throws JsonTypeError naming @p key when it is absent,
     * fractional, negative or out of range -- never casts a double.
     */
    std::uint64_t countAt(const std::string &key) const;
    /** countAt(key), or @p fallback when @p key is absent. */
    std::uint64_t countOr(const std::string &key,
                          std::uint64_t fallback) const;
    bool boolOr(const std::string &key, bool fallback) const;
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /** Parse a complete document; trailing garbage is an error. */
    static JsonValue parse(std::string_view text);

  private:
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
                 JsonObject>
        data_;

    /**
     * Append the serialization to @p out. With a @p sink, @p out is a
     * bounded buffer: whenever it passes about 1 MiB it is written to
     * the sink and cleared, so a document of any size costs one
     * buffer of memory.
     */
    void dumpTo(std::string &out, int indent, int depth,
                util::OutputFile *sink) const;

    friend void saveJsonFile(const std::string &path,
                             const JsonValue &value, int indent);
};

/**
 * Load and parse a JSON file; fatal on I/O failure and on malformed
 * input ("<path>:<line>:<col>: <message>").
 */
JsonValue loadJsonFile(const std::string &path);

/** Write @p text to @p path (truncating); fatal, naming the path,
 *  when the file cannot be opened or any write fails. */
void saveTextFile(const std::string &path, std::string_view text);

/**
 * Serialize @p value to @p path, streamed through one bounded buffer
 * and the same checked writer as saveTextFile(); fatal, naming the
 * path, when any write fails.
 */
void saveJsonFile(const std::string &path, const JsonValue &value,
                  int indent = 2);

} // namespace act::config

#endif // ACT_CONFIG_JSON_H
