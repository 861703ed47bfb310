#include "quantum/partial_trace.hpp"

#include <algorithm>

#include "linalg/complex_view.hpp"
#include "quantum/local_ops.hpp"
#include "sweep/parallel.hpp"
#include "util/require.hpp"

namespace dqma::quantum {

using util::require;

Density partial_trace(const Density& rho, const std::vector<int>& traced_out) {
  const RegisterShape& shape = rho.shape();
  const int nregs = shape.register_count();
  std::vector<bool> traced(static_cast<std::size_t>(nregs), false);
  for (const int r : traced_out) {
    require(r >= 0 && r < nregs, "partial_trace: register out of range");
    require(!traced[static_cast<std::size_t>(r)],
            "partial_trace: duplicate register");
    traced[static_cast<std::size_t>(r)] = true;
  }

  std::vector<int> kept;
  for (int r = 0; r < nregs; ++r) {
    if (!traced[static_cast<std::size_t>(r)]) {
      kept.push_back(r);
    }
  }
  return reduce_to(rho, kept);
}

Density reduce_to(const Density& rho, const std::vector<int>& kept) {
  const RegisterShape& shape = rho.shape();
  const int nregs = shape.register_count();
  std::vector<bool> keep(static_cast<std::size_t>(nregs), false);
  for (const int r : kept) {
    require(r >= 0 && r < nregs, "reduce_to: register out of range");
    require(!keep[static_cast<std::size_t>(r)], "reduce_to: duplicate register");
    keep[static_cast<std::size_t>(r)] = true;
  }
  // `kept` must preserve the original register order so indices stay stable.
  for (std::size_t k = 1; k < kept.size(); ++k) {
    require(kept[k] > kept[k - 1], "reduce_to: registers must be ascending");
  }

  std::vector<int> kept_dims;
  for (const int r : kept) {
    kept_dims.push_back(shape.dim(r));
  }
  RegisterShape out_shape{kept_dims};
  const long long out_dim = out_shape.total_dim();

  // The kept registers are the plan's targets, so its precomputed offset
  // tables are exactly the kept-index and traced-index flat offsets — no
  // per-entry offset recomputation.
  const LocalOpPlan plan(shape, kept);
  const auto& kept_off = plan.target_offsets();
  const auto& traced_off = plan.free_offsets();

  CMat out(static_cast<int>(out_dim), static_cast<int>(out_dim));
  const linalg::ConstComplexView full(rho.matrix());
  const long long full_cols = full.cols();
  // Output rows are independent (each entry one serial diagonal sum), so
  // row panels run in parallel with thread-count-invariant values.
  const std::size_t row_ops =
      static_cast<std::size_t>(out_dim) * traced_off.size();
  sweep::parallel_for(
      static_cast<std::size_t>(out_dim), sweep::grain_for_ops(row_ops),
      [&](std::size_t i_begin, std::size_t i_end) {
        for (std::size_t ii = i_begin; ii < i_end; ++ii) {
          const long long i = static_cast<long long>(ii);
          const long long base_i = kept_off[static_cast<std::size_t>(i)];
          for (long long j = 0; j < out_dim; ++j) {
            const long long base_j = kept_off[static_cast<std::size_t>(j)];
            Complex acc{0.0, 0.0};
            for (const long long off : traced_off) {
              acc += full.load((base_i + off) * full_cols + (base_j + off));
            }
            out(static_cast<int>(i), static_cast<int>(j)) = acc;
          }
        }
      });
  return Density(std::move(out_shape), std::move(out));
}

Density reduced_single(const PureState& psi, int reg) {
  return reduce_to(Density::from_pure(psi), {reg});
}

}  // namespace dqma::quantum
