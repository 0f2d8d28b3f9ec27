/**
 * @file
 * Fault-injection + serializability-oracle experiment harness.
 *
 * Runs one (workload, runtime) experiment like runExperiment, but
 * with a seeded FaultPlan perturbing the schedule and firing
 * injection points (signature false positives, forced TMI
 * evictions, spurious alerts, forced remote aborts, and - for the
 * FlexTM runtimes - forced mid-transaction context switches through
 * TxOs), while a TxOracle records every committed history and
 * validates it by sequential replay.  Failure reports name the
 * reproducing seed, so any red run can be replayed exactly with
 * FLEXTM_FAULT_SEED=<seed>.
 */

#ifndef FLEXTM_WORKLOADS_FAULT_HARNESS_HH
#define FLEXTM_WORKLOADS_FAULT_HARNESS_HH

#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/oracle.hh"
#include "workloads/workload.hh"

namespace flextm
{

/** Options for runFaultedExperiment. */
struct FaultRunOptions
{
    unsigned threads = 4;
    /** Total timed operations across all threads (kept small: the
     *  oracle replays every committed operation). */
    unsigned totalOps = 96;
    /** Base seed; FLEXTM_FAULT_SEED overrides it when set, so a
     *  failing run can be replayed from the shell. */
    std::uint64_t seed = 1;
    /** Fault mix.  Left default-constructed (nothing enabled), the
     *  harness substitutes FaultConfig::chaos(seed). */
    FaultConfig fault{};
    /** Deliberate-bug switch (oracle teeth): commit FlexTM
     *  transactions without aborting W-R enemies. */
    bool flexSkipWrAbort = false;
    /** Run the workload's structural verify phase.  Teeth runs turn
     *  this off: a deliberately corrupted structure may panic in
     *  verify before the oracle gets to report the seed. */
    bool runVerify = true;
    /**
     * Every Nth operation of each thread requests irrevocability
     * for its next transaction (0 disables) - exercises the serial
     * fallback on runtimes that rarely escalate organically (CGL
     * never aborts, so it never trips the threshold).
     */
    unsigned irrevocableEveryN = 0;
    /**
     * Abandon the parallel phase once it has run this many cycles
     * past setup (0 = no bound).  On expiry every thread unwinds via
     * DeadlineExceeded, the verify phase and oracle validation are
     * skipped, and the result reports timedOut - the livelock
     * regression bound.
     */
    Cycles maxCycles = 0;
    MachineConfig machine{};
    /** Observe the machine after the run (counters etc.). */
    std::function<void(Machine &)> inspect;
    /** Suppress the up-front recipe line on stderr (perf sweeps run
     *  hundreds of cells and do their own reporting). */
    bool quiet = false;
};

/** What one faulted run produced. */
struct FaultRunResult
{
    /** The oracle's verdict; report.message names the seed. */
    TxOracle::Report report;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    /** Total injection-point firings (all kinds). */
    std::uint64_t faultsFired = 0;
    std::uint64_t otSpills = 0;
    /** The seed actually used (after the env override). */
    std::uint64_t seed = 0;
    /** "seed=N runtime=R workload=W" - the reproduction recipe. */
    std::string context;
    /** Parallel-phase duration in cycles. */
    Cycles cycles = 0;
    /** The maxCycles bound expired before all operations finished. */
    bool timedOut = false;
    /** Times the irrevocability token was claimed. */
    std::uint64_t irrevocableEntries = 0;
    /** Livelock-watchdog trips. */
    std::uint64_t watchdogTrips = 0;
    /** Per-thread commits/aborts (index = parallel thread, not tid);
     *  the progressiveness score sheet. */
    std::vector<std::uint64_t> threadCommits;
    std::vector<std::uint64_t> threadAborts;
    /** Threads that aborted at least once but never committed - a
     *  starved thread under a policy that claims progressiveness. */
    unsigned starvedThreads = 0;
    /** Worst consecutive-abort run any thread suffered. */
    std::uint64_t maxConsecAborts = 0;
    /** Commit-latency tail (cycles from final begin to commit,
     *  parallel phase only; 0 when no commits). */
    std::uint64_t commitLatencyP99 = 0;
    std::uint64_t commitLatencyP999 = 0;
};

/**
 * Run one faulted experiment: setup phase, parallel phase under
 * injection, workload verify phase, then oracle validation against
 * the final simulated-memory state.
 */
FaultRunResult runFaultedExperiment(WorkloadKind wk, RuntimeKind rk,
                                    const FaultRunOptions &opt);

} // namespace flextm

#endif // FLEXTM_WORKLOADS_FAULT_HARNESS_HH
