#include "src/sim/crash.h"

#include <limits>
#include <optional>
#include <stdexcept>

#include "src/common/parse.h"

namespace gg::sim {

CrashSpec parse_crash_spec(std::string_view spec) {
  CrashSpec out;
  std::string_view name = spec;
  if (const auto colon = spec.find(':'); colon != std::string_view::npos) {
    name = spec.substr(0, colon);
    const std::string_view count = spec.substr(colon + 1);
    const std::optional<std::uint64_t> nth = common::parse_u64(count);
    if (!nth || *nth == 0 ||
        *nth > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      throw std::invalid_argument("--crash-at: hit count '" + std::string(count) +
                                  "' must be an integer in [1, 9223372036854775807]");
    }
    out.nth = *nth;
  }
  out.point = common::kill_point_from_string(name);  // throws with valid names
  return out;
}

}  // namespace gg::sim
