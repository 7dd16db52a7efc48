#include "src/workloads/sobol.h"

#include <array>
#include <bit>
#include <stdexcept>

#include "src/common/annotations.h"

namespace gg::workloads {

namespace {

/// Joe-Kuo (new-joe-kuo-6) parameters for dimensions 2..8: primitive
/// polynomial degree s, encoded polynomial a (coefficients between the
/// leading and trailing 1), and initial direction numbers m_1..m_s.
struct SobolParams {
  int s;
  std::uint32_t a;
  std::uint32_t m[8];
};

constexpr SobolParams kParams[] = {
    {1, 0, {1}},                      // dim 2
    {2, 1, {1, 3}},                   // dim 3
    {3, 1, {1, 3, 1}},                // dim 4
    {3, 2, {1, 1, 1}},                // dim 5
    {4, 1, {1, 1, 3, 3}},             // dim 6
    {4, 4, {1, 3, 5, 13}},            // dim 7
    {5, 2, {1, 1, 5, 5, 17}},         // dim 8
};

static_assert(Sobol::kBits == 52, "to_unit scales by 2^-kBits");

/// A point's kBits-bit integer mapped onto [0, 1), exactly.  The integer is
/// below 2^52, so the signed conversion is exact and skips the fix-up code
/// an unsigned 64-bit conversion needs on x86-64.
inline double to_unit(std::uint64_t x) {
  return static_cast<double>(static_cast<std::int64_t>(x)) * 0x1p-52;
}

/// Point `index` of one dimension as a kBits-bit integer.
std::uint64_t point_bits(std::uint64_t index, const std::vector<std::uint64_t>& prefix) {
  // Bit b of index selects v[b]; with g = index ^ (index >> 1) that set is
  // the XOR over set bits t of g of prefix[t] = v[0] ^ ... ^ v[t].
  const std::uint64_t low = index & ((1ULL << Sobol::kBits) - 1);
  std::uint64_t x = 0;
  for (std::uint64_t g = low ^ (low >> 1); g != 0; g &= g - 1) {
    x ^= prefix[static_cast<std::size_t>(std::countr_zero(g))];
  }
  return x;
}

}  // namespace

Sobol::Sobol(std::size_t dimensions) {
  if (dimensions == 0 || dimensions > kMaxDimensions) {
    throw std::invalid_argument("Sobol: dimensions must be in [1, 8]");
  }
  std::array<std::uint64_t, kBits> v{};
  prefix_.resize(dimensions);
  for (std::size_t d = 0; d < dimensions; ++d) {
    if (d == 0) {
      // Dimension 0: van der Corput — direction numbers are single bits.
      for (int bit = 0; bit < kBits; ++bit) v[bit] = 1ULL << (kBits - 1 - bit);
    } else {
      const SobolParams& p = kParams[d - 1];
      for (int i = 0; i < p.s && i < kBits; ++i) {
        v[i] = static_cast<std::uint64_t>(p.m[i]) << (kBits - 1 - i);
      }
      for (int i = p.s; i < kBits; ++i) {
        // Recurrence: v_i = v_{i-s} >> s XOR a-selected earlier terms.
        std::uint64_t value = v[i - p.s] ^ (v[i - p.s] >> p.s);
        for (int k = 1; k < p.s; ++k) {
          if ((p.a >> (p.s - 1 - k)) & 1u) value ^= v[i - k];
        }
        v[i] = value;
      }
    }
    auto& prefix = prefix_[d];
    prefix.resize(kBits);
    std::uint64_t acc = 0;
    for (int bit = 0; bit < kBits; ++bit) {
      acc ^= v[bit];
      prefix[bit] = acc;
    }
  }
}

double Sobol::sample(std::uint64_t index, std::size_t dim) const {
  if (dim >= prefix_.size()) throw std::out_of_range("Sobol: dimension");
  return to_unit(point_bits(index, prefix_[dim]));
}

GG_HOT void Sobol::fill(std::uint64_t first, std::size_t count, std::size_t dim,
                        double* out) const {
  if (dim >= prefix_.size()) throw std::out_of_range("Sobol: dimension");
  if (count == 0) return;
  const auto& prefix = prefix_[dim];
  const std::uint64_t* p = prefix.data();
  std::uint64_t i = first;
  std::uint64_t x = point_bits(i, prefix);
  out[0] = to_unit(x);
  for (std::size_t k = 1; k < count; ++k) {
    // i -> i + 1 clears i's trailing ones and sets the bit above them, which
    // flips v[0..t] for t = countr_one(i): one prefix.  A carry out of the
    // low kBits bits wraps the point back to the origin.
    const int t = std::countr_one(i);
    ++i;
    x = t < kBits ? x ^ p[t] : point_bits(i, prefix);
    out[k] = to_unit(x);
  }
}

}  // namespace gg::workloads
