#include "common/canonical.h"

#include <stdexcept>

namespace dpipe {

CanonicalWriter& CanonicalWriter::write_text(double value) {
  // "%.17g" needs at most 24 bytes ("-2.2250738585072014e-308").
  char buf[32];
  const std::to_chars_result result = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out_.append(buf, result.ptr);
  return *this;
}

namespace detail {

void require_whole_number(std::string_view token,
                          std::from_chars_result result,
                          std::string_view field) {
  if (token.empty() || result.ec != std::errc() ||
      result.ptr != token.data() + token.size()) {
    throw std::invalid_argument("malformed number in field " +
                                std::string(field) + ": '" +
                                std::string(token) + "'");
  }
}

}  // namespace detail

double parse_double(std::string_view token, std::string_view field) {
  double value = 0.0;
  detail::require_whole_number(
      token,
      std::from_chars(token.data(), token.data() + token.size(), value,
                      std::chars_format::general),
      field);
  return value;
}

void CanonicalReader::truncated(std::string_view field) {
  throw std::invalid_argument("truncated input, expected " +
                              std::string(field));
}

std::string_view CanonicalReader::line(std::string_view field) {
  if (rest_.empty()) {
    truncated(field);
  }
  const std::size_t end = rest_.find('\n');
  const std::string_view line = rest_.substr(0, end);
  rest_.remove_prefix(end == std::string_view::npos ? rest_.size() : end + 1);
  return line;
}

void CanonicalReader::keyword(std::string_view keyword) {
  if (token(keyword) != keyword) {
    throw std::invalid_argument("expected keyword " + std::string(keyword));
  }
}

std::string_view CanonicalReader::field(std::string_view key) {
  const std::string_view value = token(key);
  if (!value.starts_with(key)) {
    throw std::invalid_argument("expected " + std::string(key) + " field");
  }
  return value.substr(key.size());
}

std::string_view CanonicalReader::name_field(std::string_view key) {
  const std::string_view value = field(key);
  // The token ends where the rest of its line begins, so the name is one
  // contiguous view over both.
  const std::string_view tail = rest_.empty() ? rest_ : line(key);
  return {value.data(), value.size() + tail.size()};
}

std::string_view CanonicalReader::bytes(std::size_t n,
                                        std::string_view field) {
  if (n > rest_.size()) {
    truncated(field);
  }
  const std::string_view block = rest_.substr(0, n);
  rest_.remove_prefix(n);
  return block;
}

void CanonicalReader::expect_end(std::string_view field) {
  for (const char c : rest_) {
    if (!is_space(c)) {
      throw std::invalid_argument("trailing bytes after " +
                                  std::string(field));
    }
  }
  rest_ = {};
}

}  // namespace dpipe
