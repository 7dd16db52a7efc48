// Sobol quasirandom sequence generator.
//
// The CUDA SDK `quasirandomGenerator` the paper enlarges as "QG" computes a
// Niederreiter/Sobol low-discrepancy sequence; this is a faithful
// multi-dimensional Sobol generator with Joe-Kuo style direction numbers for
// the first dimensions.  Dimension 0 degenerates to the van der Corput
// radical inverse.
//
// Points are in natural order: point i XORs the direction integer of every
// set bit of i.  The generator stores prefix XORs of the direction integers
// instead, which turns that into a Gray-code walk: `sample` XORs one prefix
// per set bit of i ^ (i >> 1), and `fill` steps from point i to i + 1 with a
// single XOR.  QG's kernel and its serial reference in `Qrng::reference` both
// generate through `fill`.
#pragma once

#include <cstdint>
#include <vector>

namespace gg::workloads {

class Sobol {
 public:
  static constexpr std::size_t kMaxDimensions = 8;
  static constexpr int kBits = 52;  // fits a double's mantissa exactly

  /// Throws std::invalid_argument for dimensions outside [1, kMaxDimensions].
  explicit Sobol(std::size_t dimensions);

  [[nodiscard]] std::size_t dimensions() const { return prefix_.size(); }

  /// The `index`-th point's coordinate in dimension `dim`, in [0, 1).
  /// Points are indexed from 0 (point 0 is the origin, by convention); only
  /// the low kBits bits of `index` select the point.
  [[nodiscard]] double sample(std::uint64_t index, std::size_t dim) const;

  /// out[k] = sample(first + k, dim) for k in [0, count), bit for bit.
  void fill(std::uint64_t first, std::size_t count, std::size_t dim, double* out) const;

 private:
  // prefix_[dim][t] = v[0] ^ ... ^ v[t] over the dimension's direction
  // integers v, kBits entries per dimension.
  std::vector<std::vector<std::uint64_t>> prefix_;
};

}  // namespace gg::workloads
