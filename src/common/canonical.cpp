#include "common/canonical.h"

#include <istream>
#include <stdexcept>

namespace dpipe {

CanonicalWriter& CanonicalWriter::operator<<(double value) {
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

namespace {

double parse_double(std::string_view token, std::string_view field) {
  double value = 0.0;
  detail::require_whole_number(
      token,
      std::from_chars(token.data(), token.data() + token.size(), value,
                      std::chars_format::general),
      field);
  return value;
}

}  // namespace

std::string read_token(std::istream& in, std::string_view field) {
  std::string token;
  if (!(in >> token)) {
    throw std::invalid_argument("truncated input, expected " +
                                std::string(field));
  }
  return token;
}

std::string_view field_value(std::string_view token, std::string_view key) {
  if (!token.starts_with(key)) {
    throw std::invalid_argument("expected " + std::string(key) + " field");
  }
  return token.substr(key.size());
}

std::string read_name_field(std::istream& in, std::string_view key) {
  const std::string token = read_token(in, key);
  std::string rest;
  std::getline(in, rest);
  return std::string(field_value(token, key)) + rest;
}

void expect_keyword(std::istream& in, std::string_view keyword) {
  if (read_token(in, keyword) != keyword) {
    throw std::invalid_argument("expected keyword " + std::string(keyword));
  }
}

double read_double(std::istream& in, std::string_view field) {
  return parse_double(read_token(in, field), field);
}

double read_double_field(std::istream& in, std::string_view key) {
  return parse_double(field_value(read_token(in, key), key), key);
}

}  // namespace dpipe
