/**
 * @file
 * Fault-injection + serializability-oracle experiment harness.
 *
 * Runs one (workload, runtime) experiment through runExperiment's
 * phase sequence, but with a seeded FaultPlan perturbing the schedule
 * and firing injection points (signature false positives, forced TMI
 * evictions, spurious alerts, forced remote aborts, and - for the
 * FlexTM runtimes - forced mid-transaction context switches through
 * TxOs), while a TxOracle records every committed history and
 * validates it by sequential replay.  Failure reports name the
 * reproducing seed, so any red run can be replayed exactly with
 * FLEXTM_FAULT_SEED=<seed>.
 */

#ifndef FLEXTM_WORKLOADS_FAULT_HARNESS_HH
#define FLEXTM_WORKLOADS_FAULT_HARNESS_HH

#include "sim/fault.hh"
#include "workloads/workload.hh"

namespace flextm
{

/** Options for runFaultedExperiment: the sweep defaults plus quiet. */
struct FaultRunOptions : ExperimentOptions
{
    FaultRunOptions()
    {
        threads = 4;
        // Kept small: the oracle replays every committed operation.
        totalOps = 96;
        runVerify = true;
    }

    /** Suppress the up-front recipe line on stderr (perf sweeps run
     *  hundreds of cells and do their own reporting). */
    bool quiet = false;
};

/**
 * Run one faulted experiment: setup phase, parallel phase under
 * injection, workload verify phase, then oracle validation against
 * the final simulated-memory state.  FLEXTM_FAULT_SEED, when set,
 * overrides opt.seed, so a failing run can be replayed from the
 * shell; an opt.machine.fault with nothing enabled becomes
 * FaultConfig::chaos(seed).  Defined beside runExperiment in
 * workload.cc.
 */
ExperimentResult runFaultedExperiment(WorkloadKind wk, RuntimeKind rk,
                                      const FaultRunOptions &opt);

} // namespace flextm

#endif // FLEXTM_WORKLOADS_FAULT_HARNESS_HH
