// Registration entry points for every bench/ experiment. Each
// bench_<name>.cpp defines register_<name>() (the table harness body
// wrapped as a sweep::Experiment); dqma_bench calls
// register_all_experiments() before dispatching through sweep::cli_main.
#pragma once

namespace dqma::bench {

void register_ablations();
void register_exp_topology();
void register_robustness();
void register_table1_fgnp();
void register_table2_eq();
void register_table2_gt_rv();
void register_table2_hamming();
void register_table2_qmacc();
void register_table2_relay();
void register_table3_lower();

/// Registers every experiment exactly once, in the paper's table order.
/// Safe to call repeatedly (later calls are no-ops).
void register_all_experiments();

}  // namespace dqma::bench
