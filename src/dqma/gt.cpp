#include "dqma/gt.hpp"

#include <algorithm>
#include <cmath>

#include "dqma/attacks.hpp"
#include "dqma/runner.hpp"
#include "qtest/swap_test.hpp"
#include "util/require.hpp"

namespace dqma::protocol {

using linalg::CVec;
using util::require;

bool gt_predicate(GtVariant variant, const Bitstring& x, const Bitstring& y) {
  const int cmp = x.compare(y);
  switch (variant) {
    case GtVariant::kGreater:
      return cmp > 0;
    case GtVariant::kLess:
      return cmp < 0;
    case GtVariant::kGeq:
      return cmp >= 0;
    case GtVariant::kLeq:
      return cmp <= 0;
  }
  return false;
}

GtProtocol::GtProtocol(int n, int r, double delta, int reps, GtVariant variant,
                       std::uint64_t seed)
    : n_(n), r_(r), reps_(reps), variant_(variant), scheme_(n, delta, seed) {
  require(n >= 1, "GtProtocol: n must be positive");
  require(r >= 1, "GtProtocol: r must be positive");
  require(reps >= 1, "GtProtocol: reps must be positive");
}

int GtProtocol::paper_reps(int r) {
  return static_cast<int>(std::ceil(2.0 * 81.0 * r * r / 4.0));
}

CostProfile GtProtocol::costs() const {
  const long long q = scheme_.qubits();
  // Index register: values 0..n (sentinel included): ceil(log2(n+1)).
  long long index_qubits = 0;
  while ((1LL << index_qubits) < n_ + 1) {
    ++index_qubits;
  }
  CostProfile c;
  const long long inner = std::max(0, r_ - 1);
  c.local_proof_qubits = 2LL * reps_ * q + index_qubits;
  c.total_proof_qubits =
      2LL * reps_ * q * inner + index_qubits * (r_ + 1);
  c.local_message_qubits = static_cast<long long>(reps_) * q + index_qubits;
  c.total_message_qubits = c.local_message_qubits * r_;
  return c;
}

bool GtProtocol::x_bit_ok(const Bitstring& x, int i) const {
  switch (variant_) {
    case GtVariant::kGreater:
    case GtVariant::kGeq:
      return x.get(i);  // x_i = 1
    case GtVariant::kLess:
    case GtVariant::kLeq:
      return !x.get(i);  // x_i = 0
  }
  return false;
}

bool GtProtocol::y_bit_ok(const Bitstring& y, int i) const {
  switch (variant_) {
    case GtVariant::kGreater:
    case GtVariant::kGeq:
      return !y.get(i);  // y_i = 0
    case GtVariant::kLess:
    case GtVariant::kLeq:
      return y.get(i);  // y_i = 1
  }
  return false;
}

Bitstring GtProtocol::fingerprint_input(const Bitstring& s, int index) const {
  require(index >= 0 && index <= n_, "GtProtocol: index out of range");
  if (index == n_) {
    return s;  // sentinel: full string
  }
  // Zero-padded prefix s[0..index-1].
  Bitstring out(n_);
  for (int i = 0; i < index; ++i) {
    out.set(i, s.get(i));
  }
  return out;
}

int GtProtocol::honest_index(const Bitstring& x, const Bitstring& y) const {
  require(x.size() == n_ && y.size() == n_, "GtProtocol: input length mismatch");
  require(gt_predicate(variant_, x, y),
          "GtProtocol::honest_strategy: predicate does not hold");
  // The witness index: the first position where the inputs differ.
  for (int i = 0; i < n_; ++i) {
    if (x.get(i) != y.get(i)) {
      return i;
    }
  }
  require(sentinel_allowed(),
          "GtProtocol::honest_strategy: equal inputs need the sentinel");
  return n_;
}

bool GtProtocol::index_admissible(const Bitstring& x, const Bitstring& y,
                                  int i) const {
  if (i == n_) {
    return sentinel_allowed();  // v_0 rejects an out-of-range index
  }
  return x_bit_ok(x, i) && y_bit_ok(y, i);  // else v_0 or v_r rejects
}

double GtProtocol::chain_rep(const CVec& source, const CVec& target,
                             const PathProof& rep) const {
  require(rep.intermediate_nodes() == std::max(0, r_ - 1),
          "GtProtocol: proof size mismatch");
  return chain_accept(
      source, rep,
      [](const CVec& a, const CVec& b) {
        return qtest::swap_test_accept(a, b);
      },
      [&target](const CVec& received) {
        const double amp = std::abs(target.dot(received));
        return amp * amp;
      });
}

GtProtocol::Strategy GtProtocol::honest_strategy(const Bitstring& x,
                                                 const Bitstring& y) const {
  Strategy s;
  s.index = honest_index(x, y);
  const CVec h = scheme_.state(fingerprint_input(x, s.index));
  s.proof = replicate(uniform_proof(h, std::max(0, r_ - 1)), reps_);
  return s;
}

double GtProtocol::accept_probability(const Bitstring& x, const Bitstring& y,
                                      const Strategy& strategy) const {
  require(x.size() == n_ && y.size() == n_, "GtProtocol: input length mismatch");
  const int i = strategy.index;
  require(i >= 0 && i <= n_, "GtProtocol: index out of range");
  if (!index_admissible(x, y, i)) {
    return 0.0;
  }
  require(static_cast<int>(strategy.proof.size()) == reps_,
          "GtProtocol: repetition count mismatch");

  const CVec source = scheme_.state(fingerprint_input(x, i));
  const CVec target = scheme_.state(fingerprint_input(y, i));
  double accept = 1.0;
  for (const auto& rep : strategy.proof) {
    accept *= chain_rep(source, target, rep);
    if (accept == 0.0) {
      break;
    }
  }
  return accept;
}

double GtProtocol::completeness(const Bitstring& x, const Bitstring& y) const {
  // Every honest repetition is the same: evaluate one, fold it k times.
  const int i = honest_index(x, y);
  const CVec source = scheme_.state(fingerprint_input(x, i));
  const CVec target = scheme_.state(fingerprint_input(y, i));
  return fold_repetitions(
      chain_rep(source, target, uniform_proof(source, std::max(0, r_ - 1))),
      reps_);
}

double GtProtocol::best_attack_accept(const Bitstring& x,
                                      const Bitstring& y) const {
  require(x.size() == n_ && y.size() == n_, "GtProtocol: input length mismatch");
  double best_single = 0.0;
  const int inner = std::max(0, r_ - 1);
  const int max_index = sentinel_allowed() ? n_ : n_ - 1;
  for (int i = 0; i <= max_index; ++i) {
    if (!index_admissible(x, y, i)) {
      continue;
    }
    const Bitstring px = fingerprint_input(x, i);
    const Bitstring py = fingerprint_input(y, i);
    if (px == py) {
      // The predicate holds through this index: the honest sub-proof
      // accepts with probability 1 (this only happens on yes instances).
      return 1.0;
    }
    const CVec hx = scheme_.state(px);
    const CVec hy = scheme_.state(py);
    // Single-repetition acceptance of the product attacks; the k-fold
    // protocol with identical per-repetition proofs accepts with the k-th
    // power.
    double single = chain_rep(hx, hy, rotation_attack(hx, hy, inner));
    for (int cut = 0; cut <= inner; ++cut) {
      single = std::max(single,
                        chain_rep(hx, hy, step_attack(hx, hy, inner, cut)));
    }
    best_single = std::max(best_single, single);
  }
  return std::pow(best_single, reps_);
}

}  // namespace dqma::protocol
