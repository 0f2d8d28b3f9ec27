/**
 * @file
 * Workload interface and the experiment harness (Table 3b).
 *
 * Each workload builds its shared data structures in simulated
 * memory during setup (run single-threaded, matching the paper's
 * "execute a fixed number of transactions in a single thread to
 * warm up the data structure"), then serves timed operations via
 * runOne().  All mutable shared state lives in simulated memory so
 * that transactional aborts roll it back; host-side members are
 * immutable configuration only.
 */

#ifndef FLEXTM_WORKLOADS_WORKLOAD_HH
#define FLEXTM_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "runtime/runtime_factory.hh"
#include "runtime/tx_thread.hh"
#include "sim/oracle.hh"

namespace flextm
{

/** A benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build + warm up shared state (single-threaded). */
    virtual void setup(TxThread &t) = 0;

    /** Execute one timed operation (usually one transaction). */
    virtual void runOne(TxThread &t) = 0;

    /** Check structural invariants after a run (tests). */
    virtual void verify(TxThread &t) = 0;

    virtual const char *name() const = 0;
};

/** The workloads of Table 3b, plus the adversarial CM stress pack. */
enum class WorkloadKind
{
    HashTable,
    RBTree,
    LFUCache,
    RandomGraph,
    Delaunay,
    VacationLow,
    VacationHigh,
    HotSpot,
    CyclicConflict
};

const char *workloadKindName(WorkloadKind k);

std::unique_ptr<Workload> makeWorkload(WorkloadKind k);

/** Options for one experiment (runExperiment, runFaultedExperiment). */
struct ExperimentOptions
{
    unsigned threads = 1;
    /** Total timed operations across all threads. */
    unsigned totalOps = 2000;
    std::uint64_t seed = 1;
    /** The simulated machine, fault mix (MachineConfig::fault)
     *  included. */
    MachineConfig machine{};
    /** Attach a compute-bound background task to each thread and
     *  yield to it on every abort (Figure 5e-f). */
    bool primeBackground = false;
    /** Run the workload's structural verify phase after the timed
     *  phase.  Teeth runs turn this off: a deliberately corrupted
     *  structure may panic in verify before the oracle gets to report
     *  the seed. */
    bool runVerify = false;
    /** Deliberate-bug switch (oracle teeth): commit FlexTM
     *  transactions without aborting W-R enemies. */
    bool flexSkipWrAbort = false;
    /**
     * Every Nth operation of each thread requests irrevocability
     * for its next transaction (0 disables) - exercises the serial
     * fallback on runtimes that rarely escalate organically (CGL
     * never aborts, so it never trips the threshold).
     */
    unsigned irrevocableEveryN = 0;
    /**
     * Abandon the timed phase once it has run this many cycles past
     * setup (0 = no bound).  On expiry every thread unwinds via
     * DeadlineExceeded, the verify phase and oracle validation are
     * skipped, and the result reports timedOut - the livelock
     * regression bound.
     */
    Cycles maxCycles = 0;
    /** Observe the machine after the run (counters etc.). */
    std::function<void(Machine &)> inspect;
};

/** Everything a figure, sweep or golden needs from one experiment. */
struct ExperimentResult
{
    Cycles cycles = 0;            //!< timed-phase duration
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    /** committed transactions per million cycles (the paper's
     *  throughput metric, Figure 4). */
    double throughput = 0.0;
    /** Prime-factorization chunks per million cycles of the
     *  background task (primeBackground; Section 7.4). */
    double primeThroughput = 0.0;
    /** per-transaction conflicting-peer counts (W-R|W-W CST
     *  population at commit; Figure 4 table). */
    std::uint64_t conflictMedian = 0;
    std::uint64_t conflictMax = 0;
    /** Overflow Table spills during the timed phase. */
    std::uint64_t otSpills = 0;
    /** The oracle's verdict (runFaultedExperiment), or the timeout;
     *  report.message names the seed. */
    TxOracle::Report report;
    /** Total injection-point firings (all kinds). */
    std::uint64_t faultsFired = 0;
    /** The seed actually used (after FLEXTM_FAULT_SEED). */
    std::uint64_t seed = 0;
    /** "seed=N runtime=R workload=W" - the reproduction recipe. */
    std::string context;
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
     *  timed phase only; 0 when no commits). */
    std::uint64_t commitLatencyP99 = 0;
    std::uint64_t commitLatencyP999 = 0;
};

/**
 * Run one (workload, runtime, thread-count) experiment: build a
 * machine, set up the workload single-threaded, execute totalOps
 * operations across the threads, optionally verify, and report
 * throughput over the timed parallel phase.
 */
ExperimentResult runExperiment(WorkloadKind wk, RuntimeKind rk,
                               const ExperimentOptions &opt);

} // namespace flextm

#endif // FLEXTM_WORKLOADS_WORKLOAD_HH
