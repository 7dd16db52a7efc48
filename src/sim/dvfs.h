// Operating points, DVFS tables and clocked frequency domains.
//
// The GeForce 8800 GTX exposes frequency-only scaling for its core and memory
// domains (no voltage scaling through nvidia-settings), while the AMD
// Phenom II CPU scales voltage together with frequency (true DVFS).  Both are
// modelled as a `FreqDomain` over a `DvfsTable` of discrete operating points;
// level 0 is always the highest frequency, matching how the paper enumerates
// levels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/snapshot.h"
#include "src/common/units.h"

namespace gg::sim {

/// One discrete frequency/voltage pair.  For frequency-only domains the
/// voltage is constant across points.
struct OperatingPoint {
  Megahertz frequency{0.0};
  double voltage{1.0};
};

/// Immutable, descending-frequency table of operating points.
class DvfsTable {
 public:
  /// Points must be non-empty and strictly descending in frequency.
  explicit DvfsTable(std::vector<OperatingPoint> points);

  [[nodiscard]] std::size_t levels() const { return points_.size(); }
  [[nodiscard]] const OperatingPoint& point(std::size_t level) const;
  [[nodiscard]] Megahertz frequency(std::size_t level) const { return point(level).frequency; }
  [[nodiscard]] double voltage(std::size_t level) const { return point(level).voltage; }

  /// Level 0: the peak frequency.
  [[nodiscard]] Megahertz peak() const { return points_.front().frequency; }
  /// The lowest available frequency.
  [[nodiscard]] Megahertz floor() const { return points_.back().frequency; }
  [[nodiscard]] std::size_t lowest_level() const { return points_.size() - 1; }

  /// Fraction of the dynamic range covered by `level`:
  /// peak -> 1.0, floor -> 0.0, linear in frequency in between.
  /// This is the `umean` mapping of the paper (Section V-A, following [4]).
  [[nodiscard]] double range_fraction(std::size_t level) const;

 private:
  std::vector<OperatingPoint> points_;
};

/// A clock domain with a mutable current level and change statistics.
class FreqDomain {
 public:
  FreqDomain(std::string name, DvfsTable table, std::size_t initial_level = 0);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const DvfsTable& table() const { return table_; }
  [[nodiscard]] std::size_t level() const { return level_; }
  [[nodiscard]] Megahertz frequency() const { return table_.frequency(level_); }
  [[nodiscard]] double voltage() const { return table_.voltage(level_); }
  [[nodiscard]] std::size_t levels() const { return table_.levels(); }

  /// Returns true if the level actually changed.
  bool set_level(std::size_t level);

  /// Number of set_level calls that changed the level (actuation cost proxy).
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }

  /// Serialize the mutable state (current level + transition count); the
  /// table itself is configuration and must match at load time.
  void save(common::SnapshotWriter& w) const {
    w.u64(level_);
    w.u64(transitions_);
  }
  void load(common::SnapshotReader& r) {
    const auto level = static_cast<std::size_t>(r.u64());
    if (level >= table_.levels()) {
      throw common::SnapshotError("FreqDomain::load: level out of range for " + name_);
    }
    level_ = level;
    transitions_ = r.u64();
  }

 private:
  std::string name_;
  DvfsTable table_;
  std::size_t level_;
  std::uint64_t transitions_{0};
};

/// Factory: the six GeForce 8800 GTX core levels used in the paper's testbed
/// (equally spaced across the dynamic range; includes the 410 MHz knee the
/// paper cites for streamcluster): 576, 521, 466, 410, 355, 300 MHz.
[[nodiscard]] DvfsTable geforce8800_core_table();

/// Factory: the six GeForce 8800 GTX memory levels quoted in Section VI:
/// 900, 820, 740, 660, 580, 500 MHz.
[[nodiscard]] DvfsTable geforce8800_memory_table();

/// Factory: AMD Phenom II X2 P-states from Section VI (2.8 GHz, 2.1 GHz,
/// 1.3 GHz, 800 MHz) with representative core voltages.
[[nodiscard]] DvfsTable phenom2_table();

}  // namespace gg::sim
