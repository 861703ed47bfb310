#include "dqma/attacks.hpp"

#include <cmath>

#include "util/require.hpp"

namespace dqma::protocol {

using linalg::Complex;
using linalg::CVec;
using util::require;

std::vector<CVec> geodesic_states(const CVec& a, const CVec& b, int count) {
  require(a.dim() == b.dim(), "geodesic_states: dimension mismatch");
  require(count >= 0, "geodesic_states: negative count");
  // Phase-align b so that <a|b'> is real and non-negative (a global phase
  // does not change the state), then orthonormalize:
  // b' = cos(theta) a + sin(theta) b_perp.
  const Complex raw_overlap = a.dot(b);
  CVec b_aligned = b;
  if (std::abs(raw_overlap) > 1e-12) {
    b_aligned *= std::conj(raw_overlap) / std::abs(raw_overlap);
  }
  const double overlap = std::abs(raw_overlap);
  CVec b_perp = b_aligned;
  for (int i = 0; i < b.dim(); ++i) {
    b_perp[i] -= overlap * a[i];
  }
  double theta = 0.0;
  if (b_perp.norm() > 1e-12) {
    b_perp.normalize();
    theta = std::atan2(std::sqrt(std::max(0.0, 1.0 - overlap * overlap)),
                       overlap);
  }
  std::vector<CVec> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int j = 1; j <= count; ++j) {
    const double t = static_cast<double>(j) / (count + 1);
    CVec phi(a.dim());
    const double c = std::cos(t * theta);
    const double s = std::sin(t * theta);
    for (int i = 0; i < a.dim(); ++i) {
      phi[i] = c * a[i] + (theta > 0.0 ? s * b_perp[i] : Complex{0.0, 0.0});
    }
    phi.normalize();
    out.push_back(std::move(phi));
  }
  return out;
}

PathProof uniform_proof(const CVec& state, int inner) {
  require(inner >= 0, "uniform_proof: negative node count");
  PathProof proof;
  proof.reg0.assign(static_cast<std::size_t>(inner), state);
  proof.reg1 = proof.reg0;
  return proof;
}

PathProof rotation_attack(const CVec& hx, const CVec& hy, int inner) {
  PathProof proof;
  const auto states = geodesic_states(hx, hy, inner);
  proof.reg0 = states;
  proof.reg1 = states;
  return proof;
}

PathProof step_attack(const CVec& hx, const CVec& hy, int inner, int cut) {
  require(cut >= 0 && cut <= inner, "step_attack: cut out of range");
  PathProof proof;
  for (int j = 0; j < inner; ++j) {
    proof.reg0.push_back(j < cut ? hx : hy);
    proof.reg1.push_back(j < cut ? hx : hy);
  }
  return proof;
}

PathProof all_target_attack(const CVec& hy, int inner) {
  return uniform_proof(hy, inner);
}

PathProofReps replicate(const PathProof& proof, int reps) {
  require(reps >= 1, "replicate: reps must be positive");
  return PathProofReps(static_cast<std::size_t>(reps), proof);
}

}  // namespace dqma::protocol
