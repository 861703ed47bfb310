#include "dqma/relay_eq.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace dqma::protocol {

using util::Bitstring;
using util::require;

RelayEqProtocol::RelayEqProtocol(int n, int r, double delta, int spacing,
                                 int seg_reps, std::uint64_t seed)
    : n_(n), r_(r), spacing_(spacing), seg_reps_(seg_reps) {
  require(n >= 1, "RelayEqProtocol: n must be positive");
  require(r >= 1, "RelayEqProtocol: r must be positive");
  require(spacing >= 1, "RelayEqProtocol: spacing must be positive");
  require(seg_reps >= 1, "RelayEqProtocol: seg_reps must be positive");

  for (int pos = spacing; pos < r; pos += spacing) {
    relay_positions_.push_back(pos);
  }
  // Segments between consecutive anchors (v_0, relays..., v_r).
  int prev = 0;
  for (const int pos : relay_positions_) {
    segments_.push_back(std::make_unique<EqPathProtocol>(
        n, pos - prev, delta, seg_reps, EqPathMode::kSymmetrized, seed));
    prev = pos;
  }
  segments_.push_back(std::make_unique<EqPathProtocol>(
      n, r - prev, delta, seg_reps, EqPathMode::kSymmetrized, seed));
}

int RelayEqProtocol::paper_spacing(int n) {
  // ceil(n^{1/3}) with a guard against cbrt() landing just above an exact
  // cube (cbrt(27) = 3 + ulp would otherwise round to 4).
  return static_cast<int>(std::ceil(std::cbrt(static_cast<double>(n)) - 1e-9));
}

int RelayEqProtocol::paper_seg_reps(int n) {
  const int s = paper_spacing(n);
  return 42 * s * s;
}

CostProfile RelayEqProtocol::costs_for(int n, int r, double delta, int spacing,
                                       int seg_reps) {
  CostProfile c;
  int relays = 0;
  for (int pos = spacing; pos < r; pos += spacing) {
    ++relays;
  }
  c.local_proof_qubits = n;
  c.total_proof_qubits = static_cast<long long>(relays) * n;
  int prev = 0;
  auto add_segment = [&](int length) {
    const CostProfile sc = EqPathProtocol::costs_for(n, length, delta, seg_reps);
    c.local_proof_qubits = std::max(c.local_proof_qubits, sc.local_proof_qubits);
    c.total_proof_qubits += sc.total_proof_qubits;
    c.local_message_qubits =
        std::max(c.local_message_qubits, sc.local_message_qubits);
    c.total_message_qubits += sc.total_message_qubits;
  };
  for (int pos = spacing; pos < r; pos += spacing) {
    add_segment(pos - prev);
    prev = pos;
  }
  add_segment(r - prev);
  return c;
}

CostProfile RelayEqProtocol::costs() const {
  CostProfile c;
  // Relays receive n qubits each.
  c.local_proof_qubits = n_;
  c.total_proof_qubits = static_cast<long long>(relay_count()) * n_;
  // Intermediate (non-relay) nodes carry segment fingerprint registers.
  for (const auto& seg : segments_) {
    const CostProfile sc = seg->costs();
    c.local_proof_qubits = std::max(c.local_proof_qubits, sc.local_proof_qubits);
    c.total_proof_qubits += sc.total_proof_qubits;
    c.local_message_qubits =
        std::max(c.local_message_qubits, sc.local_message_qubits);
    c.total_message_qubits += sc.total_message_qubits;
  }
  return c;
}

RelayEqProtocol::Strategy RelayEqProtocol::honest_strategy(
    const Bitstring& x) const {
  Strategy s;
  s.relay_strings.assign(static_cast<std::size_t>(relay_count()), x);
  for (const auto& seg : segments_) {
    s.segment_proofs.push_back(seg->honest_proof(x));
  }
  return s;
}

double RelayEqProtocol::strategy_accept(const std::vector<Bitstring>& anchors,
                                        const Strategy& strategy,
                                        const Bitstring& /*x*/,
                                        const Bitstring& /*y*/) const {
  double accept = 1.0;
  for (int s = 0; s < segment_count(); ++s) {
    accept *= segments_[static_cast<std::size_t>(s)]->accept_probability(
        anchors[static_cast<std::size_t>(s)],
        anchors[static_cast<std::size_t>(s + 1)],
        strategy.segment_proofs[static_cast<std::size_t>(s)]);
    if (accept == 0.0) {
      break;
    }
  }
  return accept;
}

double RelayEqProtocol::accept_probability(const Bitstring& x,
                                           const Bitstring& y,
                                           const Strategy& strategy) const {
  require(static_cast<int>(strategy.relay_strings.size()) == relay_count(),
          "RelayEqProtocol: relay string count mismatch");
  require(static_cast<int>(strategy.segment_proofs.size()) == segment_count(),
          "RelayEqProtocol: segment proof count mismatch");
  std::vector<Bitstring> anchors;
  anchors.reserve(static_cast<std::size_t>(segment_count()) + 1);
  anchors.push_back(x);
  anchors.insert(anchors.end(), strategy.relay_strings.begin(),
                 strategy.relay_strings.end());
  anchors.push_back(y);
  return strategy_accept(anchors, strategy, x, y);
}

double RelayEqProtocol::completeness(const Bitstring& x) const {
  // The honest relays all read x, so every segment runs its own folded
  // honest completeness on (x, x).
  double accept = 1.0;
  for (const auto& seg : segments_) {
    accept *= seg->completeness(x);
    if (accept == 0.0) {
      break;
    }
  }
  return accept;
}

double RelayEqProtocol::best_attack_accept(const Bitstring& x,
                                           const Bitstring& y) const {
  require(x.size() == n_ && y.size() == n_,
          "RelayEqProtocol: input length mismatch");

  // Candidate relay-string assignments.
  std::vector<std::vector<Bitstring>> candidates;

  // (a) Hamming interpolation: relay i flips the first ceil(i * d / (k+1))
  // differing positions of x toward y.
  {
    std::vector<int> diff_positions;
    for (int i = 0; i < n_; ++i) {
      if (x.get(i) != y.get(i)) {
        diff_positions.push_back(i);
      }
    }
    std::vector<Bitstring> relays;
    for (int i = 1; i <= relay_count(); ++i) {
      const int flips = static_cast<int>(
          std::llround(static_cast<double>(i) *
                       static_cast<double>(diff_positions.size()) /
                       (relay_count() + 1)));
      Bitstring z = x;
      for (int f = 0; f < flips; ++f) {
        z.flip(diff_positions[static_cast<std::size_t>(f)]);
      }
      relays.push_back(std::move(z));
    }
    candidates.push_back(std::move(relays));
  }
  // (b) Single jump in each segment position: all relays before the jump
  // hold x, the rest hold y.
  for (int jump = 0; jump <= relay_count(); ++jump) {
    std::vector<Bitstring> relays;
    for (int i = 0; i < relay_count(); ++i) {
      relays.push_back(i < jump ? x : y);
    }
    candidates.push_back(std::move(relays));
  }

  double best = 0.0;
  for (auto& relays : candidates) {
    Strategy s;
    s.relay_strings = relays;
    std::vector<Bitstring> anchors;
    anchors.push_back(x);
    anchors.insert(anchors.end(), relays.begin(), relays.end());
    anchors.push_back(y);
    double accept = 1.0;
    for (int seg = 0; seg < segment_count(); ++seg) {
      const Bitstring& a = anchors[static_cast<std::size_t>(seg)];
      const Bitstring& b = anchors[static_cast<std::size_t>(seg + 1)];
      if (a == b) {
        // Honest sub-proof accepts with certainty.
        continue;
      }
      accept *= segments_[static_cast<std::size_t>(seg)]->best_attack_accept(a, b);
      if (accept == 0.0) {
        break;
      }
    }
    best = std::max(best, accept);
  }
  return best;
}

}  // namespace dqma::protocol
