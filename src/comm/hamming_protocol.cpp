#include "comm/hamming_protocol.hpp"

#include <cmath>
#include <utility>

#include "code/linear_code.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dqma::comm {

using util::Bitstring;
using util::require;

HammingOneWayProtocol::HammingOneWayProtocol(int n, int d, double delta,
                                             int copies, std::uint64_t seed)
    : n_(n),
      d_(d),
      blocks_(static_cast<int>(blocks_for(d))),
      copies_(copies),
      scheme_(n, delta, seed ^ 0x5eed) {
  require(n >= 1, "HammingOneWayProtocol: n must be positive");
  require(d >= 0 && d <= n, "HammingOneWayProtocol: d out of range");
  require(copies >= 1, "HammingOneWayProtocol: copies must be positive");
  // Hash every index into a block with the shared seed.
  util::Rng rng(seed);
  masks_.assign(static_cast<std::size_t>(blocks_), Bitstring(n));
  for (int i = 0; i < n; ++i) {
    const int b =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(blocks_)));
    masks_[static_cast<std::size_t>(b)].set(i, true);
  }
}

double HammingOneWayProtocol::message_amplitudes(int n, int d, double delta,
                                                 int copies) {
  return blocks_for(d) * copies * code::recommended_block_length(n, delta);
}

double HammingOneWayProtocol::stored_bytes(int n, int d, double delta) {
  // A mask also costs its Bitstring object and a heap chunk header.
  const double row = 8.0 * ((n + 63) / 64);
  return blocks_for(d) * (row + sizeof(Bitstring) + 16) +
         code::recommended_block_length(n, delta) * row;
}

int HammingOneWayProtocol::recommended_copies(int d, double delta,
                                              double target) {
  require(delta > 0.0 && delta < 1.0, "recommended_copies: bad delta");
  require(target > 0.0 && target < 1.0, "recommended_copies: bad target");
  // Want (d+1) * delta^{2k} <= target / 2 (the hash-collision half of the
  // error budget is controlled by the block count).
  int k = 1;
  double err = (d + 1) * std::pow(delta * delta, k);
  while (err > target / 2 && k < 64) {
    ++k;
    err = (d + 1) * std::pow(delta * delta, k);
  }
  return k;
}

std::vector<int> HammingOneWayProtocol::message_dims() const {
  return std::vector<int>(
      static_cast<std::size_t>(blocks_ * copies_), scheme_.dim());
}

std::vector<CVec> HammingOneWayProtocol::honest_message(
    const Bitstring& x) const {
  require(x.size() == n_, "HammingOneWayProtocol: input length mismatch");
  std::vector<CVec> message;
  message.reserve(static_cast<std::size_t>(blocks_ * copies_));
  for (int b = 0; b < blocks_; ++b) {
    const CVec fp = scheme_.state(x & block_mask(b));
    for (int c = 0; c < copies_; ++c) {
      message.push_back(fp);
    }
  }
  return message;
}

double HammingOneWayProtocol::accept_product(
    const Bitstring& y, const std::vector<CVec>& message) const {
  require(y.size() == n_, "HammingOneWayProtocol: input length mismatch");
  require(static_cast<int>(message.size()) == blocks_ * copies_,
          "HammingOneWayProtocol: register count mismatch");
  std::shared_ptr<const Memo> memo = memo_.load(std::memory_order_acquire);
  if (memo == nullptr || memo->y != y) {
    auto fresh = std::make_shared<Memo>();
    fresh->y = y;
    fresh->refs.reserve(static_cast<std::size_t>(blocks_));
    for (int b = 0; b < blocks_; ++b) {
      fresh->refs.push_back(scheme_.state(y & block_mask(b)));
    }
    memo = std::move(fresh);
    memo_.store(memo, std::memory_order_release);
  }
  // Per block: probability that *all* copies pass Bob's projector.
  std::vector<double> pass(static_cast<std::size_t>(blocks_), 1.0);
  for (int b = 0; b < blocks_; ++b) {
    const CVec& ref = memo->refs[static_cast<std::size_t>(b)];
    for (int c = 0; c < copies_; ++c) {
      const double amp =
          std::abs(ref.dot(message[static_cast<std::size_t>(b * copies_ + c)]));
      pass[static_cast<std::size_t>(b)] *= amp * amp;
    }
  }
  return accept_from_pass(pass);
}

double HammingOneWayProtocol::honest_accept(const Bitstring& x,
                                            const Bitstring& y) const {
  // An equal block (diff & mask_b = 0) passes with certainty, so only the
  // unequal ones can be flagged.
  const Bitstring diff = x ^ y;
  std::vector<Bitstring> unequal;
  for (int b = 0; b < blocks_; ++b) {
    Bitstring block_diff = diff & block_mask(b);
    if (block_diff.weight() > 0) {
      unequal.push_back(std::move(block_diff));
    }
  }
  // At most d blocks can be flagged, so Bob accepts with certainty.
  if (static_cast<int>(unequal.size()) <= d_) {
    return 1.0;
  }
  // E is linear, so an unequal block's overlap is 1 - 2 w(E(block_diff)) / m.
  const double m = static_cast<double>(scheme_.dim());
  std::vector<double> pass(unequal.size(), 1.0);
  for (std::size_t k = 0; k < unequal.size(); ++k) {
    const double overlap =
        1.0 - 2.0 * scheme_.code().codeword_weight(unequal[k]) / m;
    for (int c = 0; c < copies_; ++c) {
      pass[k] *= overlap * overlap;
    }
  }
  return accept_from_pass(pass);
}

double HammingOneWayProtocol::accept_from_pass(
    const std::vector<double>& pass) const {
  // Bob accepts iff at most d blocks are flagged (flag = any copy rejects).
  // Poisson-binomial tail by DP over blocks; mass past d flags is dropped.
  std::vector<double> dp(static_cast<std::size_t>(d_) + 1, 0.0);
  dp[0] = 1.0;
  for (const double p : pass) {
    const double q = 1.0 - p;  // flag prob
    if (q == 0.0) {
      continue;
    }
    double carry = 0.0;
    for (int f = 0; f <= d_; ++f) {
      const double stay = dp[static_cast<std::size_t>(f)] * (1.0 - q);
      const double up = dp[static_cast<std::size_t>(f)] * q;
      dp[static_cast<std::size_t>(f)] = stay + carry;
      carry = up;
    }
  }
  double accept = 0.0;
  for (const double v : dp) {
    accept += v;
  }
  return std::min(1.0, std::max(0.0, accept));
}

bool HammingOneWayProtocol::predicate(const Bitstring& x,
                                      const Bitstring& y) const {
  return x.distance(y) <= d_;
}

const Bitstring& HammingOneWayProtocol::block_mask(int b) const {
  require(b >= 0 && b < blocks_, "HammingOneWayProtocol: block out of range");
  return masks_[static_cast<std::size_t>(b)];
}

}  // namespace dqma::comm
