#include "quantum/density.hpp"

#include <cmath>
#include <utility>

#include "quantum/local_ops.hpp"
#include "util/require.hpp"
#include "util/tolerance.hpp"

namespace dqma::quantum {

using util::require;

Density Density::maximally_mixed(RegisterShape shape) {
  const long long d = shape.total_dim();
  require(d <= util::kMaxDenseExactDim,
          "Density: dimension exceeds the dense-engine cap");
  CMat rho = CMat::identity(static_cast<int>(d));
  rho *= Complex{1.0 / static_cast<double>(d), 0.0};
  return Density(std::move(shape), std::move(rho));
}

Density Density::from_pure(const PureState& psi) {
  return Density(psi.shape(), CMat::projector(psi.amplitudes()));
}

Density::Density(RegisterShape shape, CMat rho)
    : shape_(std::move(shape)), rho_(std::move(rho)) {
  const long long d = shape_.total_dim();
  require(d <= util::kMaxDenseExactDim,
          "Density: dimension exceeds the dense-engine cap");
  require(rho_.rows() == d && rho_.cols() == d,
          "Density: matrix does not match shape");
  require(rho_.is_hermitian(1e-7), "Density: matrix not Hermitian");
  require(std::abs(rho_.trace().real() - 1.0) < 1e-6 &&
              std::abs(rho_.trace().imag()) < 1e-7,
          "Density: trace is not 1");
}

Density Density::tensor(const Density& other) const {
  std::vector<int> dims;
  dims.reserve(shape_.dims().size() + other.shape_.dims().size());
  dims.insert(dims.end(), shape_.dims().begin(), shape_.dims().end());
  dims.insert(dims.end(), other.shape_.dims().begin(),
              other.shape_.dims().end());
  return Density(RegisterShape(std::move(dims)), rho_.kron(other.rho_));
}

CMat embed_operator(const RegisterShape& shape, const CMat& op,
                    const std::vector<int>& regs) {
  // Reference implementation kept for cross-validation: the hot paths apply
  // local operators matrix-free (quantum/local_ops.hpp) instead of
  // embedding them. The plan precomputes both offset tables once per call.
  const LocalOpPlan plan(shape, regs);
  require(static_cast<long long>(op.rows()) == plan.block() &&
              static_cast<long long>(op.cols()) == plan.block(),
          "embed_operator: operator dimension mismatch");
  const auto& toff = plan.target_offsets();
  const long long block = plan.block();
  const long long total = plan.total_dim();
  CMat out(static_cast<int>(total), static_cast<int>(total));
  for (const long long base : plan.free_offsets()) {
    for (long long i = 0; i < block; ++i) {
      for (long long j = 0; j < block; ++j) {
        const Complex v = op(static_cast<int>(i), static_cast<int>(j));
        // Component-wise exact zero (not std::norm == 0, whose squares
        // underflow on subnormal entries and would drop them).
        if (v.real() == 0.0 && v.imag() == 0.0) continue;
        out(static_cast<int>(base + toff[static_cast<std::size_t>(i)]),
            static_cast<int>(base + toff[static_cast<std::size_t>(j)])) = v;
      }
    }
  }
  return out;
}

void Density::apply(const CMat& u, const std::vector<int>& regs) {
  const LocalOpPlan plan(shape_, regs);
  sandwich_local(plan, u, rho_);
}

void Density::mix_with(const Density& other, double p_this) {
  require(shape_ == other.shape_, "Density::mix_with: shape mismatch");
  require(p_this >= 0.0 && p_this <= 1.0,
          "Density::mix_with: probability out of range");
  rho_.blend(other.rho_, Complex{p_this, 0.0}, Complex{1.0 - p_this, 0.0});
}

double Density::expectation(const CMat& effect,
                            const std::vector<int>& regs) const {
  const LocalOpPlan plan(shape_, regs);
  return expectation_local(plan, effect, rho_);
}

double Density::project(const CMat& effect, const std::vector<int>& regs) {
  const LocalOpPlan plan(shape_, regs);
  return project_local(plan, effect, rho_);
}

}  // namespace dqma::quantum
