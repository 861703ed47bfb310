#include "code/linear_code.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/require.hpp"

namespace dqma::code {

using util::require;

LinearCode::LinearCode(int n, int m, std::uint64_t seed)
    : n_(n), m_(m), words_per_row_((n + 63) / 64) {
  require(n >= 1, "LinearCode: message length must be positive");
  require(m >= 1, "LinearCode: block length must be positive");
  util::Rng rng(seed);
  rows_.resize(static_cast<std::size_t>(m) *
               static_cast<std::size_t>(words_per_row_));
  for (auto& w : rows_) {
    w = rng.next_u64();
  }
  // Mask tail bits of every row so weights are exact.
  const int tail = n % 64;
  if (tail != 0) {
    const std::uint64_t mask = (1ULL << tail) - 1;
    for (int i = 0; i < m; ++i) {
      rows_[static_cast<std::size_t>(i) * static_cast<std::size_t>(words_per_row_) +
            static_cast<std::size_t>(words_per_row_ - 1)] &= mask;
    }
  }
}

Bitstring LinearCode::encode(const Bitstring& x) const {
  require(x.size() == n_, "LinearCode::encode: message length mismatch");
  // x's packed words share the rows' layout: bit i at word i / 64.
  const std::vector<std::uint64_t>& xw = x.words();
  Bitstring out(m_);
  for (int r = 0; r < m_; ++r) {
    std::uint64_t acc = 0;
    const std::size_t base = static_cast<std::size_t>(r) *
                             static_cast<std::size_t>(words_per_row_);
    for (int w = 0; w < words_per_row_; ++w) {
      acc ^= rows_[base + static_cast<std::size_t>(w)] &
             xw[static_cast<std::size_t>(w)];
    }
    if (std::popcount(acc) % 2 == 1) {
      out.set(r, true);
    }
  }
  return out;
}

int LinearCode::codeword_weight(const Bitstring& x) const {
  return encode(x).weight();
}

int LinearCode::min_distance_exhaustive() const {
  require(n_ <= 20, "LinearCode::min_distance_exhaustive: n too large");
  int best = m_;
  for (std::uint64_t msg = 1; msg < (1ULL << n_); ++msg) {
    const Bitstring x = Bitstring::from_integer(msg, n_);
    best = std::min(best, codeword_weight(x));
  }
  return best;
}

double LinearCode::max_overlap_exhaustive() const {
  require(n_ <= 20, "LinearCode::max_overlap_exhaustive: n too large");
  double worst = 0.0;
  for (std::uint64_t msg = 1; msg < (1ULL << n_); ++msg) {
    const Bitstring x = Bitstring::from_integer(msg, n_);
    const double overlap =
        std::abs(1.0 - 2.0 * static_cast<double>(codeword_weight(x)) /
                           static_cast<double>(m_));
    worst = std::max(worst, overlap);
  }
  return worst;
}

double LinearCode::max_overlap_sampled(int samples, util::Rng& rng) const {
  double worst = 0.0;
  for (int s = 0; s < samples; ++s) {
    Bitstring x = Bitstring::random(n_, rng);
    if (x.weight() == 0) {
      x.set(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n_))),
            true);
    }
    const double overlap =
        std::abs(1.0 - 2.0 * static_cast<double>(codeword_weight(x)) /
                           static_cast<double>(m_));
    worst = std::max(worst, overlap);
  }
  return worst;
}

int recommended_block_length(int n, double delta) {
  require(n >= 1, "recommended_block_length: n must be positive");
  require(delta > 0.0 && delta < 1.0,
          "recommended_block_length: delta must be in (0,1)");
  // P[|2w/m - 1| > delta] <= 2 exp(-m delta^2 / 2) per message; union bound
  // over 2^n messages needs m >= 2 (n ln 2 + slack) / delta^2.
  const double slack = 8.0;
  const double raw = 2.0 * (static_cast<double>(n) * 0.6931471805599453 + slack) /
                     (delta * delta);
  // Doubling past 2^30 overflows int, and the loop below would never end.
  require(raw <= 1 << 30, "recommended_block_length: block length above 2^30");
  int m = 1;
  while (m < raw) {
    m *= 2;
  }
  return m;
}

}  // namespace dqma::code
