#include "dqma/noise.hpp"

#include <algorithm>
#include <cmath>

#include "dqma/attacks.hpp"
#include "dqma/runner.hpp"
#include "qtest/swap_test.hpp"
#include "util/require.hpp"

namespace dqma::protocol {

using linalg::CVec;
using util::require;

NoiseModel NoiseModel::uniform(double rate) {
  require(rate >= 0.0 && rate <= 1.0, "NoiseModel::uniform: rate out of range");
  NoiseModel model;
  model.uniform_rate_ = rate;
  return model;
}

NoiseModel NoiseModel::per_link(std::vector<double> rates) {
  require(!rates.empty(), "NoiseModel::per_link: need at least one link");
  for (const double rate : rates) {
    require(rate >= 0.0 && rate <= 1.0,
            "NoiseModel::per_link: rate out of range");
  }
  NoiseModel model;
  model.rates_ = std::move(rates);
  return model;
}

bool NoiseModel::is_noiseless() const {
  if (rates_.empty()) {
    return uniform_rate_ == 0.0;
  }
  return std::all_of(rates_.begin(), rates_.end(),
                     [](double rate) { return rate == 0.0; });
}

double NoiseModel::rate(int link) const {
  require(link >= 0, "NoiseModel::rate: negative link index");
  if (rates_.empty()) {
    return uniform_rate_;
  }
  require(link < static_cast<int>(rates_.size()),
          "NoiseModel::rate: link index beyond the per-link table");
  return rates_[static_cast<std::size_t>(link)];
}

double NoiseModel::max_rate() const {
  if (rates_.empty()) {
    return uniform_rate_;
  }
  return *std::max_element(rates_.begin(), rates_.end());
}

NoiseModel NoiseModel::scaled(double factor) const {
  require(factor >= 0.0, "NoiseModel::scaled: negative factor");
  const auto clamp01 = [](double rate) {
    return std::min(1.0, std::max(0.0, rate));
  };
  if (rates_.empty()) {
    return uniform(clamp01(uniform_rate_ * factor));
  }
  std::vector<double> scaled_rates(rates_.size());
  for (std::size_t i = 0; i < rates_.size(); ++i) {
    scaled_rates[i] = clamp01(rates_[i] * factor);
  }
  return per_link(std::move(scaled_rates));
}

namespace {

/// The symmetrized EQ chain of `protocol` from input x, with the
/// fingerprints of x and y prepared once. Statistics are collected
/// noiselessly — SWAP-test acceptances and the final amplitude |<h|b>|
/// (not its square, so the damped final test rounds exactly as
/// (1-p)*amp*amp + p/d) — and every noise model re-weights them in the
/// O(r) coin DP alone.
class NoisyChain {
 public:
  NoisyChain(const EqPathProtocol& protocol, const Bitstring& x,
             const Bitstring& y)
      : inner_(std::max(0, protocol.r() - 1)),
        d_(static_cast<double>(protocol.scheme().dim())),
        hx_(protocol.scheme().state(x)),
        hy_(protocol.scheme().state(y)) {
    require(protocol.mode() == EqPathMode::kSymmetrized,
            "noisy_chain: noise model implemented for the symmetrized "
            "protocol");
  }

  /// One repetition on (x, y): v_r measures against |h_y>.
  ChainStats collect(const PathProof& rep) const { return collect(rep, hy_); }

  /// The honest repetition on (x, x): every register and v_r's
  /// measurement |h_x>.
  ChainStats honest() const {
    return collect(uniform_proof(hx_, inner_), hx_);
  }

  /// The implemented product attacks on (x, y): rotation, then every step
  /// cut.
  std::vector<ChainStats> attacks() const {
    std::vector<ChainStats> out;
    out.push_back(collect(rotation_attack(hx_, hy_, inner_)));
    for (int cut = 0; cut <= inner_; ++cut) {
      out.push_back(collect(step_attack(hx_, hy_, inner_, cut)));
    }
    return out;
  }

  /// One repetition's acceptance: node v_j's pair test receives through
  /// link j-1, v_r's measurement through link r-1.
  double accept(const ChainStats& stats, const NoiseModel& noise) const {
    const double depol_swap = 0.5 + 0.5 / d_;
    return chain_dp(
        stats,
        [&](int link, double swap) {
          return noise.damp(link, swap, depol_swap);
        },
        [&](int link, double amp) {
          const double p = noise.rate(link);
          return (1.0 - p) * amp * amp + p / d_;
        });
  }

 private:
  ChainStats collect(const PathProof& rep, const CVec& target) const {
    return collect_chain(
        hx_, rep,
        [](const CVec& received, const CVec& kept) {
          return qtest::swap_test_accept(received, kept);
        },
        [&target](const CVec& received) {
          return std::abs(target.dot(received));
        });
  }

  int inner_;
  double d_;
  CVec hx_;
  CVec hy_;
};

void require_covers_path(const EqPathProtocol& protocol,
                         const NoiseModel& noise) {
  if (!noise.is_uniform()) {
    require(noise.link_count() >= protocol.r(),
            "noisy_chain: per-link model must cover every path link");
  }
}

double best_attack(const NoisyChain& chain,
                   const std::vector<ChainStats>& attacks,
                   const NoiseModel& noise, int reps) {
  double best_single = chain.accept(attacks.front(), noise);
  for (std::size_t i = 1; i < attacks.size(); ++i) {
    best_single = std::max(best_single, chain.accept(attacks[i], noise));
  }
  return std::pow(best_single, reps);
}

}  // namespace

double noisy_accept_probability(const EqPathProtocol& protocol,
                                const Bitstring& x, const Bitstring& y,
                                const PathProofReps& proof,
                                const NoiseModel& noise) {
  require(static_cast<int>(proof.size()) == protocol.reps(),
          "noisy_accept_probability: repetition count mismatch");
  const NoisyChain chain(protocol, x, y);
  require_covers_path(protocol, noise);
  double accept = 1.0;
  for (const auto& rep : proof) {
    accept *= chain.accept(chain.collect(rep), noise);
    if (accept == 0.0) {
      break;
    }
  }
  return accept;
}

double noisy_completeness(const EqPathProtocol& protocol, const Bitstring& x,
                          const NoiseModel& noise) {
  const NoisyChain chain(protocol, x, x);
  require_covers_path(protocol, noise);
  return fold_repetitions(chain.accept(chain.honest(), noise),
                          protocol.reps());
}

double noisy_attack_accept(const EqPathProtocol& protocol, const Bitstring& x,
                           const Bitstring& y, const NoiseModel& noise) {
  const NoisyChain chain(protocol, x, y);
  require_covers_path(protocol, noise);
  return best_attack(chain, chain.attacks(), noise, protocol.reps());
}

double noise_threshold(const EqPathProtocol& protocol, const Bitstring& x,
                       const Bitstring& y, double tol,
                       const NoiseModel& profile) {
  require(tol > 0.0, "noise_threshold: tolerance must be positive");
  require_covers_path(protocol, profile);
  // Noise only damps the clean statistics, so every chain is collected
  // once; each bisection step re-runs the coin DPs alone.
  const NoisyChain chain(protocol, x, y);
  const ChainStats honest = chain.honest();
  const std::vector<ChainStats> attacks = chain.attacks();
  const auto separated = [&](double scale) {
    const NoiseModel scaled = profile.scaled(scale);
    return fold_repetitions(chain.accept(honest, scaled), protocol.reps()) >=
               2.0 / 3.0 &&
           best_attack(chain, attacks, scaled, protocol.reps()) <= 1.0 / 3.0;
  };
  if (!separated(0.0)) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = 1.0;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    if (separated(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace dqma::protocol
