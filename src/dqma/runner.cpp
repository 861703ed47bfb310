#include "dqma/runner.hpp"

#include <cmath>

#include "util/require.hpp"

namespace dqma::protocol {

using util::require;

ChainStats collect_chain(
    const CVec& source, const PathProof& proof,
    const std::function<double(const CVec&, const CVec&)>& pair_stat,
    const std::function<double(const CVec&)>& final_stat) {
  const int inner = proof.intermediate_nodes();
  require(static_cast<int>(proof.reg1.size()) == inner,
          "collect_chain: reg0/reg1 size mismatch");
  ChainStats stats;
  stats.inner = inner;
  if (inner == 0) {
    stats.final_stat[0] = final_stat(source);
    return stats;
  }
  // kept_j(c) = c == 0 ? reg0[j] : reg1[j]
  // sent_j(c) = c == 0 ? reg1[j] : reg0[j]
  stats.pair.reserve(static_cast<std::size_t>(4 * inner - 2));
  stats.pair.push_back(pair_stat(source, proof.reg0[0]));
  stats.pair.push_back(pair_stat(source, proof.reg1[0]));
  for (int j = 1; j < inner; ++j) {
    const CVec& sent_prev_c0 = proof.reg1[static_cast<std::size_t>(j - 1)];
    const CVec& sent_prev_c1 = proof.reg0[static_cast<std::size_t>(j - 1)];
    const CVec& kept_c0 = proof.reg0[static_cast<std::size_t>(j)];
    const CVec& kept_c1 = proof.reg1[static_cast<std::size_t>(j)];
    stats.pair.push_back(pair_stat(sent_prev_c0, kept_c0));
    stats.pair.push_back(pair_stat(sent_prev_c1, kept_c0));
    stats.pair.push_back(pair_stat(sent_prev_c0, kept_c1));
    stats.pair.push_back(pair_stat(sent_prev_c1, kept_c1));
  }
  const auto last = static_cast<std::size_t>(inner - 1);
  stats.final_stat[0] = final_stat(proof.reg1[last]);
  stats.final_stat[1] = final_stat(proof.reg0[last]);
  return stats;
}

double chain_accept(
    const CVec& source, const PathProof& proof,
    const std::function<double(const CVec&, const CVec&)>& pair_test,
    const std::function<double(const CVec&)>& final_test) {
  const auto as_is = [](int, double stat) { return stat; };
  return chain_dp(collect_chain(source, proof, pair_test, final_test), as_is,
                  as_is);
}

double fold_repetitions(double per_rep, int reps) {
  double accept = 1.0;
  for (int k = 0; k < reps; ++k) {
    accept *= per_rep;
    if (accept == 0.0) {
      break;
    }
  }
  return accept;
}

MonteCarloEstimate RunningStat::finalize() const {
  require(count_ >= 1, "RunningStat: need at least one sample");
  MonteCarloEstimate out;
  out.samples = count_;
  out.mean = mean_;
  const double var = std::max(0.0, m2_ / static_cast<double>(count_));
  out.half_width_95 = 1.96 * std::sqrt(var / static_cast<double>(count_));
  return out;
}

MonteCarloEstimate estimate(const std::function<double()>& sample, int count) {
  require(count >= 1, "estimate: need at least one sample");
  RunningStat stat;
  for (int i = 0; i < count; ++i) {
    stat.add(sample());
  }
  return stat.finalize();
}

}  // namespace dqma::protocol
