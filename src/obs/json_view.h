/**
 * @file
 * Minimal JSON parser for the observability tooling.
 *
 * The forensics dump and the Chrome trace export are JSON; the
 * dvsync_inspect CLI and the round-trip tests need to read them back
 * without growing a third-party dependency. This is a small
 * recursive-descent parser over the RFC 8259 grammar — numbers become
 * doubles (exact for the |x| < 2^53 nanosecond timestamps we store),
 * strings handle the escape set our exporter emits plus \uXXXX (decoded
 * as UTF-8).
 */

#ifndef DVS_OBS_JSON_VIEW_H
#define DVS_OBS_JSON_VIEW_H

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dvs {

/** A parsed JSON value. */
class JsonValue
{
  public:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind() const { return kind_; }
    bool is_null() const { return kind_ == Kind::kNull; }
    bool is_number() const { return kind_ == Kind::kNumber; }
    bool is_string() const { return kind_ == Kind::kString; }
    bool is_array() const { return kind_ == Kind::kArray; }
    bool is_object() const { return kind_ == Kind::kObject; }

    bool as_bool() const { return bool_; }
    double as_number() const { return number_; }
    const std::string &as_string() const { return string_; }
    const std::vector<JsonValue> &items() const { return items_; }

    /** Object member; null-kind sentinel when absent or not an object. */
    const JsonValue &at(const std::string &key) const;

    /** Convenience: member @p key as number/string with a default. */
    double number_at(const std::string &key, double fallback = 0.0) const;
    std::string string_at(const std::string &key,
                          const std::string &fallback = "") const;

    bool has(const std::string &key) const;

    /**
     * Parse @p text. On failure returns a null value and sets @p error
     * (when non-null) to "offset N: message".
     */
    static JsonValue parse(const std::string &text,
                           std::string *error = nullptr);

  private:
    friend class JsonParser;

    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::map<std::string, JsonValue> members_;
};

} // namespace dvs

#endif // DVS_OBS_JSON_VIEW_H
