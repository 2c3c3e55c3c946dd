#pragma once

#include <charconv>
#include <concepts>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>

namespace dpipe {

/// The one producer of canonical bytes: the plan-request text, the model,
/// cluster and profiler blocks, the fingerprints derived from them, and
/// `.dpipe` programs. Text and characters are appended as-is; doubles are
/// written as printf "%.17g" in the C locale (std::to_chars, general format,
/// precision 17), which parses back to the same bits; integers in plain
/// decimal. Each number is formatted into a fixed stack buffer and appended,
/// so there is no stream, locale, or flag state to save and restore.
class CanonicalWriter {
 public:
  CanonicalWriter& operator<<(std::string_view text) {
    out_.append(text);
    return *this;
  }
  CanonicalWriter& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  CanonicalWriter& operator<<(double value);

  template <std::integral Int>
    requires(!std::same_as<Int, bool> && !std::same_as<Int, char>)
  CanonicalWriter& operator<<(Int value) {
    char buf[24];  // 20 digits of a 64-bit value plus a sign.
    const std::to_chars_result result =
        std::to_chars(buf, buf + sizeof(buf), value);
    out_.append(buf, result.ptr);
    return *this;
  }

  /// Moves the accumulated bytes out, leaving the writer empty.
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

// Readers of canonical text (and of the other line-based formats) parse
// every number as a whole token, so whatever the writer emits parses back
// to the same value and anything else fails with a typed error.

namespace detail {
/// Throws std::invalid_argument naming `field` unless `result` is a
/// successful parse that consumed all of the non-empty `token`.
void require_whole_number(std::string_view token,
                          std::from_chars_result result,
                          std::string_view field);
}  // namespace detail

/// Parses the whole of `token` as a decimal integer of type Int. Throws
/// std::invalid_argument naming `field` when the token is empty, holds
/// bytes after the number, or is out of Int's range.
template <std::integral Int>
[[nodiscard]] Int parse_integer(std::string_view token,
                                std::string_view field) {
  Int value{};
  detail::require_whole_number(
      token, std::from_chars(token.data(), token.data() + token.size(), value),
      field);
  return value;
}

/// Reads the next whitespace-delimited token. Throws std::invalid_argument
/// naming `field` at end of input.
[[nodiscard]] std::string read_token(std::istream& in, std::string_view field);

/// The value of a `key=value` token. Throws std::invalid_argument when the
/// token does not start with `key`.
[[nodiscard]] std::string_view field_value(std::string_view token,
                                           std::string_view key);

/// Reads a `key=<name>` field holding a free-form name: the value is the
/// rest of the token plus the rest of its line (names may contain spaces,
/// so they are written last on their line).
[[nodiscard]] std::string read_name_field(std::istream& in,
                                          std::string_view key);

/// Reads the next token and requires it to equal `keyword`.
void expect_keyword(std::istream& in, std::string_view keyword);

/// Reads the next token whole as a double (general format, as written by
/// CanonicalWriter). Throws std::invalid_argument naming `field` when the
/// token is empty, holds bytes after the number, or is out of double range
/// (e.g. "1e999"); subnormals parse to their exact value.
[[nodiscard]] double read_double(std::istream& in, std::string_view field);

template <std::integral Int>
[[nodiscard]] Int read_integer(std::istream& in, std::string_view field) {
  return parse_integer<Int>(read_token(in, field), field);
}

/// Reads the next token as `key=<number>`.
[[nodiscard]] double read_double_field(std::istream& in, std::string_view key);

template <std::integral Int>
[[nodiscard]] Int read_integer_field(std::istream& in, std::string_view key) {
  return parse_integer<Int>(field_value(read_token(in, key), key), key);
}

}  // namespace dpipe
