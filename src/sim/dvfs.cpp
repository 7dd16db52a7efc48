#include "src/sim/dvfs.h"

#include <stdexcept>
#include <utility>

namespace gg::sim {

DvfsTable::DvfsTable(std::vector<OperatingPoint> points) : points_(std::move(points)) {
  if (points_.empty()) throw std::invalid_argument("DvfsTable: no operating points");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].frequency >= points_[i - 1].frequency) {
      throw std::invalid_argument("DvfsTable: frequencies must strictly descend");
    }
  }
  for (const auto& p : points_) {
    if (p.frequency.get() <= 0.0 || p.voltage <= 0.0) {
      throw std::invalid_argument("DvfsTable: non-positive operating point");
    }
  }
}

const OperatingPoint& DvfsTable::point(std::size_t level) const {
  if (level >= points_.size()) throw std::out_of_range("DvfsTable: level out of range");
  return points_[level];
}

double DvfsTable::range_fraction(std::size_t level) const {
  const double peak_f = peak().get();
  const double floor_f = floor().get();
  if (points_.size() == 1) return 1.0;
  return (frequency(level).get() - floor_f) / (peak_f - floor_f);
}

FreqDomain::FreqDomain(std::string name, DvfsTable table, std::size_t initial_level)
    : name_(std::move(name)), table_(std::move(table)), level_(initial_level) {
  if (initial_level >= table_.levels()) {
    throw std::out_of_range("FreqDomain: initial level out of range");
  }
}

bool FreqDomain::set_level(std::size_t level) {
  if (level >= table_.levels()) throw std::out_of_range("FreqDomain: level out of range");
  if (level == level_) return false;
  level_ = level;
  ++transitions_;
  return true;
}

DvfsTable geforce8800_core_table() {
  using namespace literals;
  // Six near-equally spaced levels across the 8800 GTX core dynamic range.
  return DvfsTable{{
      {576_MHz, 1.0},
      {521_MHz, 1.0},
      {466_MHz, 1.0},
      {410_MHz, 1.0},
      {355_MHz, 1.0},
      {300_MHz, 1.0},
  }};
}

DvfsTable geforce8800_memory_table() {
  using namespace literals;
  return DvfsTable{{
      {900_MHz, 1.0},
      {820_MHz, 1.0},
      {740_MHz, 1.0},
      {660_MHz, 1.0},
      {580_MHz, 1.0},
      {500_MHz, 1.0},
  }};
}

DvfsTable phenom2_table() {
  using namespace literals;
  // Voltages approximate the Phenom II X2 550 P-state ladder.
  return DvfsTable{{
      {2800_MHz, 1.400},
      {2100_MHz, 1.250},
      {1300_MHz, 1.125},
      {800_MHz, 1.050},
  }};
}

}  // namespace gg::sim
