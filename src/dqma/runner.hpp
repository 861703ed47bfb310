// Execution engines for the product-state (fast) regime.
//
// chain_accept() is the workhorse shared by every path protocol in the
// paper (Algorithms 3, 7, 10). It is split in two steps so the expensive
// one can be shared: collect_chain() evaluates the closed-form tests of one
// repetition, chain_dp() runs the O(r) coin recursion over them. Protocols
// whose k repetitions are identical evaluate one and fold it
// (fold_repetitions).
#pragma once

#include <functional>
#include <vector>

#include "dqma/model.hpp"
#include "util/rng.hpp"

namespace dqma::protocol {

/// Test statistics of one repetition of a symmetrize-and-forward chain, in
/// the order the coin dynamic program (chain_dp) consumes them. Collecting
/// them is the expensive part (one closed-form test per entry); the DP over
/// them is O(r) arithmetic, so a caller that re-weights the same tests many
/// times (noise_threshold's bisection) collects once and re-runs only the
/// DP.
///
/// * `pair[0]`, `pair[1]`: node v_1's test of the source against its kept
///   register reg0[0] (coin 0) / reg1[0] (coin 1);
/// * for node v_{j+1}, j >= 1, four entries starting at 2 + 4(j-1):
///   t00, t10, t01, t11, where t_ab tests the register sent by coin a of
///   the previous node against the register kept by coin b of this node;
/// * `final_stat[c]`: v_r's statistic on the register that arrives when the
///   last coin is c (reg1 for c = 0, reg0 for c = 1). With no intermediate
///   nodes only final_stat[0] is used, on the source.
struct ChainStats {
  int inner = 0;
  std::vector<double> pair;
  double final_stat[2] = {0.0, 0.0};
};

/// Evaluates every test statistic of one chain repetition.
///
/// * `source`: the state v_0 sends to v_1 (e.g. |h_x>).
/// * `proof`: the two registers of each intermediate node v_1..v_{r-1}.
/// * `pair_stat(received, kept)`: statistic of the local test at an
///   intermediate node (e.g. the SWAP test closed form).
/// * `final_stat(received)`: statistic of v_r's measurement.
ChainStats collect_chain(
    const CVec& source, const PathProof& proof,
    const std::function<double(const CVec&, const CVec&)>& pair_stat,
    const std::function<double(const CVec&)>& final_stat);

/// The coin dynamic program over collected statistics: v_0 emits a state,
/// every intermediate node symmetrizes its two registers with a fair coin,
/// forwards one, tests the other against what arrived from the left, and
/// v_r applies a final measurement. `pair_test(link, stat)` and
/// `final_test(link, stat)` turn a collected statistic into an acceptance
/// probability; link j connects v_j to v_{j+1}, so node v_j's pair test
/// receives through link j-1 and v_r's measurement through link r-1
/// (= `stats.inner`). Per-link noise models (dqma/noise.hpp) damp here.
template <typename PairTest, typename FinalTest>
double chain_dp(const ChainStats& stats, const PairTest& pair_test,
                const FinalTest& final_test) {
  const int inner = stats.inner;
  if (inner == 0) {
    return final_test(0, stats.final_stat[0]);
  }
  // f[c] = expected product of test acceptances over nodes 1..j, given that
  // node j's coin is c (coin 0: keep reg0 / send reg1; coin 1: swapped),
  // including the 1/2 weight of each coin.
  double f0 = 0.5 * pair_test(0, stats.pair[0]);
  double f1 = 0.5 * pair_test(0, stats.pair[1]);
  for (int j = 1; j < inner; ++j) {
    const double* t = stats.pair.data() + 2 + 4 * (j - 1);
    const double t00 = pair_test(j, t[0]);
    const double t10 = pair_test(j, t[1]);
    const double t01 = pair_test(j, t[2]);
    const double t11 = pair_test(j, t[3]);
    const double n0 = 0.5 * (f0 * t00 + f1 * t10);
    const double n1 = 0.5 * (f0 * t01 + f1 * t11);
    f0 = n0;
    f1 = n1;
  }
  return f0 * final_test(inner, stats.final_stat[0]) +
         f1 * final_test(inner, stats.final_stat[1]);
}

/// Exact acceptance probability of one repetition of a symmetrize-and-
/// forward chain: collect_chain, then chain_dp with the statistics taken
/// as acceptance probabilities. For product proofs this is *exact*: the
/// coin dependence forms a chain, so the 2-state DP evaluates the
/// expectation in O(r) closed-form test evaluations — no Monte-Carlo error
/// anywhere. With zero intermediate nodes (r = 1) this reduces to
/// final_test(source).
double chain_accept(
    const CVec& source, const PathProof& proof,
    const std::function<double(const CVec&, const CVec&)>& pair_test,
    const std::function<double(const CVec&)>& final_test);

/// Acceptance of `reps` independent repetitions that all accept with
/// `per_rep`: the product per_rep * per_rep * ... folded left to right,
/// stopping once it reaches 0 — bit-identical to multiplying the values of
/// `reps` identical repetitions in a loop (std::pow is not).
double fold_repetitions(double per_rep, int reps);

/// Mean and a (approximate, normal) 95% confidence half-width of Bernoulli
/// or bounded samples; used by Monte-Carlo estimates in tree protocols.
struct MonteCarloEstimate {
  double mean = 0.0;
  double half_width_95 = 0.0;
  int samples = 0;
};

/// Numerically stable one-pass mean/variance accumulator (Welford). The
/// batched Monte-Carlo paths accumulate into this directly — no per-shot
/// std::function dispatch — and estimate() funnels through it too, so both
/// paths report identical statistics for identical samples. Unlike the
/// former sum_sq/count - mean^2 form, the variance cannot cancel
/// catastrophically for means far from zero; for the protocols' bounded
/// samples the two agree to the last few ulps.
class RunningStat {
 public:
  void add(double value) {
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
  }

  int count() const { return count_; }

  /// Mean plus the normal-approximation 95% half-width from the population
  /// variance m2/count (matching the pre-Welford convention).
  MonteCarloEstimate finalize() const;

 private:
  int count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Averages `sample()` over `count` draws.
MonteCarloEstimate estimate(const std::function<double()>& sample, int count);

}  // namespace dqma::protocol
