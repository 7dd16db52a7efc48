#include "src/sim/crash.h"

#include <charconv>
#include <limits>
#include <stdexcept>

namespace gg::sim {

CrashSpec parse_crash_spec(std::string_view spec) {
  CrashSpec out;
  std::string_view name = spec;
  if (const auto colon = spec.find(':'); colon != std::string_view::npos) {
    name = spec.substr(0, colon);
    const std::string_view count = spec.substr(colon + 1);
    // from_chars takes digits only: no sign, no blanks, and it reports a
    // count past 2^64 instead of wrapping it.
    std::uint64_t nth = 0;
    const char* last = count.data() + count.size();
    const auto [end, error] = std::from_chars(count.data(), last, nth);
    if (error != std::errc{} || end != last || nth == 0 ||
        nth > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      throw std::invalid_argument("--crash-at: hit count '" + std::string(count) +
                                  "' must be an integer in [1, 9223372036854775807]");
    }
    out.nth = nth;
  }
  out.point = common::kill_point_from_string(name);  // throws with valid names
  return out;
}

}  // namespace gg::sim
