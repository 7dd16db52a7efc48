// The one digits-only unsigned parser of the command lines and greengpud's
// line protocol.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace gg::common {

/// `token` when it is decimal digits alone that fit in 64 bits: no sign, no
/// blanks, no trailing bytes, no wrap past 2^64 - 1; nullopt otherwise.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(std::string_view token) {
  std::uint64_t value = 0;
  const char* last = token.data() + token.size();
  const auto [end, error] = std::from_chars(token.data(), last, value);
  if (error != std::errc{} || end != last) return std::nullopt;
  return value;
}

}  // namespace gg::common
