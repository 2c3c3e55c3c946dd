#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.h"

namespace dpipe {

/// A 128-bit content fingerprint: two independent 64-bit FNV-1a style
/// streams over the same bytes. Used to name plan entries on disk and on
/// the wire; every consumer that must be collision-proof compares full
/// bytes instead (the in-memory plan cache matches request keys exactly,
/// plan-store load verification re-parses the request bytes), so the
/// fingerprint only has to be collision-resistant, not cryptographic.
struct Fingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  friend auto operator<=>(const Fingerprint&, const Fingerprint&) = default;

  /// 32 lowercase hex characters (hi then lo), the on-disk/wire spelling.
  [[nodiscard]] std::string hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
      out[15 - i] = kDigits[(hi >> (4 * i)) & 0xF];
      out[31 - i] = kDigits[(lo >> (4 * i)) & 0xF];
    }
    return out;
  }

  /// Parses the hex() spelling. Throws std::invalid_argument on anything
  /// that is not exactly 32 hex characters.
  [[nodiscard]] static Fingerprint from_hex(std::string_view text) {
    require(text.size() == 32, "fingerprint must be 32 hex characters");
    const auto nibble = [](char c) -> std::uint64_t {
      if (c >= '0' && c <= '9') return static_cast<std::uint64_t>(c - '0');
      if (c >= 'a' && c <= 'f') return static_cast<std::uint64_t>(c - 'a' + 10);
      require(false, "invalid fingerprint hex digit");
      return 0;
    };
    Fingerprint fp;
    for (int i = 0; i < 16; ++i) {
      fp.hi = (fp.hi << 4) | nibble(text[static_cast<std::size_t>(i)]);
      fp.lo = (fp.lo << 4) | nibble(text[static_cast<std::size_t>(16 + i)]);
    }
    return fp;
  }
};

/// FNV-1a over `bytes` with a caller-chosen offset basis (the standard
/// basis for `lo`, a perturbed one for `hi`).
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes,
                                         std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

[[nodiscard]] inline Fingerprint fingerprint_bytes(std::string_view bytes) {
  Fingerprint fp;
  fp.lo = fnv1a(bytes, 14695981039346656037ull);
  // Independent stream: different basis plus a final avalanche so the two
  // words do not degenerate to a constant XOR of each other.
  std::uint64_t h = fnv1a(bytes, 14695981039346656037ull ^
                                     0x9E3779B97F4A7C15ull);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  fp.hi = h;
  return fp;
}

}  // namespace dpipe
