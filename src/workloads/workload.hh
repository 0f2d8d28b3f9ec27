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

#include "runtime/runtime_factory.hh"
#include "runtime/tx_thread.hh"

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

/** Everything a figure needs from one experiment run. */
struct ExperimentResult
{
    Cycles cycles = 0;            //!< parallel-phase duration
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    /** committed transactions per million cycles (the paper's
     *  throughput metric, Figure 4). */
    double throughput = 0.0;
    /** per-transaction conflicting-peer counts (W-R|W-W CST
     *  population at commit; Figure 4 table). */
    std::uint64_t conflictMedian = 0;
    std::uint64_t conflictMax = 0;
    std::uint64_t otSpills = 0;
};

/** Options for runExperiment. */
struct ExperimentOptions
{
    unsigned threads = 1;
    /** Total timed operations across all threads. */
    unsigned totalOps = 2000;
    std::uint64_t seed = 1;
    MachineConfig machine{};
    /** Attach a compute-bound background task to each thread and
     *  yield to it on every abort (Figure 5e-f). */
    bool primeBackground = false;
    /** Out-param style hook to observe the machine after the run. */
    std::function<void(Machine &)> inspect;
};

/**
 * Run one (workload, runtime, thread-count) experiment: build a
 * machine, set up the workload single-threaded, execute totalOps
 * operations across the threads, and report throughput over the
 * parallel phase.
 */
ExperimentResult runExperiment(WorkloadKind wk, RuntimeKind rk,
                               const ExperimentOptions &opt);

/** Prime-factorization background work (Section 7.4): returns the
 *  throughput (chunks per megacycle) of the background task. */
struct MixedResult
{
    ExperimentResult tm;
    double primeThroughput = 0.0;
};

MixedResult runMixedExperiment(WorkloadKind wk, RuntimeKind rk,
                               const ExperimentOptions &opt);

} // namespace flextm

#endif // FLEXTM_WORKLOADS_WORKLOAD_HH
