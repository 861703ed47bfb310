#include "experiments.hpp"

namespace dqma::bench {

void register_all_experiments() {
  static const bool registered = [] {
    register_table1_fgnp();
    register_table2_eq();
    register_table2_relay();
    register_table2_gt_rv();
    register_table2_hamming();
    register_table2_qmacc();
    register_table3_lower();
    register_ablations();
    register_robustness();
    register_exp_topology();
    return true;
  }();
  (void)registered;
}

}  // namespace dqma::bench
