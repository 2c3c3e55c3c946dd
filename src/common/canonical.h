#pragma once

#include <array>
#include <bit>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

namespace dpipe {

/// The one producer of every byte format in the library: the plan-request
/// text, the model, cluster and profiler blocks, the fingerprints derived
/// from them, `.dpipe` programs, `dpipe-plan v1` entries, wire responses
/// and `dpipe-checkpoint v1` files. Text and characters are appended
/// as-is; doubles are written as printf "%.17g" in the C locale
/// (std::to_chars, general format, precision 17), which parses back to the
/// same bits; integers in plain decimal; bit patterns (hex()) in lowercase
/// hex without leading zeros. Each number is formatted into a fixed stack
/// buffer and appended, so there is no stream, locale, or flag state to
/// save and restore.
///
/// A writer built with DoubleFormat::kRawBits writes each double as its 8
/// raw bytes instead, and everything else exactly as above. Its output is
/// an in-process lookup key (request_key): compared, never parsed,
/// persisted, sent or fingerprinted. "%.17g" round-trips every finite
/// double, so over finite values two walks give equal keys iff they give
/// equal texts (-0 and 0 differ in both); NaNs whose payloads differ share
/// a text but not a key.
class CanonicalWriter {
 public:
  enum class DoubleFormat { kText, kRawBits };

  CanonicalWriter() = default;
  explicit CanonicalWriter(DoubleFormat doubles) : doubles_(doubles) {}

  CanonicalWriter& operator<<(std::string_view text) {
    out_.append(text);
    return *this;
  }
  CanonicalWriter& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  CanonicalWriter& operator<<(double value) {
    if (doubles_ == DoubleFormat::kRawBits) {
      const auto bytes = std::bit_cast<std::array<char, sizeof(double)>>(value);
      out_.append(bytes.data(), bytes.size());
      return *this;
    }
    return write_text(value);
  }

  template <std::integral Int>
    requires(!std::same_as<Int, bool> && !std::same_as<Int, char>)
  CanonicalWriter& operator<<(Int value) {
    char buf[24];  // 20 digits of a 64-bit value plus a sign.
    const std::to_chars_result result =
        std::to_chars(buf, buf + sizeof(buf), value);
    out_.append(buf, result.ptr);
    return *this;
  }

  /// Appends `bits` in lowercase hex without leading zeros ("0" for zero).
  CanonicalWriter& hex(std::uint64_t bits) {
    char buf[16];
    const std::to_chars_result result =
        std::to_chars(buf, buf + sizeof(buf), bits, 16);
    out_.append(buf, result.ptr);
    return *this;
  }

  /// Moves the accumulated bytes out, leaving the writer empty.
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  CanonicalWriter& write_text(double value);

  std::string out_;
  DoubleFormat doubles_ = DoubleFormat::kText;
};

namespace detail {
/// Throws std::invalid_argument naming `field` unless `result` is a
/// successful parse that consumed all of the non-empty `token`.
void require_whole_number(std::string_view token,
                          std::from_chars_result result,
                          std::string_view field);
}  // namespace detail

/// Parses the whole of `token` as an integer of type Int in `base`. Throws
/// std::invalid_argument naming `field` when the token is empty, holds
/// bytes after the number, or is out of Int's range.
template <std::integral Int>
[[nodiscard]] Int parse_integer(std::string_view token, std::string_view field,
                                int base = 10) {
  Int value{};
  detail::require_whole_number(
      token,
      std::from_chars(token.data(), token.data() + token.size(), value, base),
      field);
  return value;
}

/// Parses the whole of `token` as a double (general format, as written by
/// CanonicalWriter). Throws std::invalid_argument naming `field` when the
/// token is empty, holds bytes after the number, or is out of double range
/// (e.g. "1e999"); subnormals parse to their exact value.
[[nodiscard]] double parse_double(std::string_view token,
                                  std::string_view field);

/// The one reader of every byte format CanonicalWriter produces. It walks a
/// std::string_view it does not own (each returned view points into it)
/// and parses every number as a whole token with std::from_chars, so
/// whatever the writer emits parses back to the same value and anything
/// else fails with std::invalid_argument naming the field. Tokens are
/// separated by any run of the C locale's whitespace (" \t\n\v\f\r");
/// lines end at '\n'. Nothing is sized by a count read from the input:
/// bytes(n) fails as truncated unless n bytes remain.
class CanonicalReader {
 public:
  explicit CanonicalReader(std::string_view bytes) : rest_(bytes) {}

  /// The bytes not yet read.
  [[nodiscard]] std::string_view rest() const { return rest_; }

  /// The next whitespace-delimited token. Throws naming `field` when only
  /// whitespace remains.
  [[nodiscard]] std::string_view token(std::string_view field) {
    std::size_t begin = 0;
    while (begin < rest_.size() && is_space(rest_[begin])) {
      ++begin;
    }
    std::size_t end = begin;
    while (end < rest_.size() && !is_space(rest_[end])) {
      ++end;
    }
    if (begin == end) {
      truncated(field);
    }
    const std::string_view token = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return token;
  }

  /// The rest of the current line, without its '\n' (which is consumed).
  /// Throws naming `field` at end of input.
  [[nodiscard]] std::string_view line(std::string_view field);

  /// Reads the next token and requires it to equal `keyword`.
  void keyword(std::string_view keyword);

  template <std::integral Int>
  [[nodiscard]] Int integer(std::string_view field) {
    return parse_integer<Int>(token(field), field);
  }

  /// The next token as a hex bit pattern (CanonicalWriter::hex).
  template <std::unsigned_integral Int>
  [[nodiscard]] Int hex(std::string_view field) {
    return parse_integer<Int>(token(field), field, 16);
  }

  [[nodiscard]] double real(std::string_view field) {
    return parse_double(token(field), field);
  }

  /// The value of the next token, which must be `key=value` (key given
  /// with its '=').
  [[nodiscard]] std::string_view field(std::string_view key);

  template <std::integral Int>
  [[nodiscard]] Int integer_field(std::string_view key) {
    return parse_integer<Int>(field(key), key);
  }

  [[nodiscard]] double real_field(std::string_view key) {
    return parse_double(field(key), key);
  }

  /// A `key=<name>` field holding a free-form name: the value is the rest
  /// of the token plus the rest of its line (names may contain spaces, so
  /// they are written last on their line).
  [[nodiscard]] std::string_view name_field(std::string_view key);

  /// The next `n` bytes, raw. Throws naming `field` unless n bytes remain,
  /// so a hostile size fails as truncated before anything is allocated.
  [[nodiscard]] std::string_view bytes(std::size_t n, std::string_view field);

  /// Throws naming `field` unless only whitespace remains.
  void expect_end(std::string_view field);

 private:
  static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }
  [[noreturn]] static void truncated(std::string_view field);

  std::string_view rest_;
};

}  // namespace dpipe
