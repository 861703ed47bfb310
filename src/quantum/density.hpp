// Density operators over register lists: the state representation of the
// exact protocol engine (arbitrary, possibly entangled proofs; mixed states
// arising from measurement and symmetrization). Storage is an in-core CMat,
// capped at kMaxDenseExactDim.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "quantum/state.hpp"

namespace dqma::quantum {

/// Embeds `op` (acting on the listed registers, in the listed order) into
/// the full Hilbert space of `shape` as op tensor identity-on-the-rest.
///
/// This is the *reference* implementation: the hot paths (Density's
/// apply/expectation/project, the exact protocol engine) apply local
/// operators matrix-free via quantum/local_ops.hpp and never materialize
/// the D x D embedding; the randomized property tests cross-validate the
/// matrix-free passes against this function.
CMat embed_operator(const RegisterShape& shape, const CMat& op,
                    const std::vector<int>& regs);

/// A density operator over a RegisterShape.
class Density {
 public:
  Density() = default;

  /// Maximally mixed state over the shape.
  static Density maximally_mixed(RegisterShape shape);

  /// |psi><psi| for a pure state.
  static Density from_pure(const PureState& psi);

  /// From an explicit matrix; validates Hermiticity and unit trace.
  Density(RegisterShape shape, CMat rho);

  const RegisterShape& shape() const { return shape_; }
  const CMat& matrix() const { return rho_; }

  /// Tensor product (register lists concatenate).
  Density tensor(const Density& other) const;

  /// Applies a unitary on the listed registers: rho <- U rho U^dagger.
  void apply(const CMat& u, const std::vector<int>& regs);

  /// Mixes in place: rho <- p * rho + (1-p) * other (same shape required).
  void mix_with(const Density& other, double p_this);

  /// Expectation tr(E rho) of a Hermitian effect acting on the listed
  /// registers (identity elsewhere). Returns a real number.
  double expectation(const CMat& effect, const std::vector<int>& regs) const;

  /// Projects onto `effect` on the listed registers and renormalizes:
  /// rho <- (E rho E^dagger) / tr(...). Returns the branch probability.
  /// If the probability is ~0 the state is left untouched and 0 is returned.
  double project(const CMat& effect, const std::vector<int>& regs);

 private:
  RegisterShape shape_;
  CMat rho_;
};

}  // namespace dqma::quantum
