/**
 * @file
 * The simulated machine: the aggregate of cores (hardware contexts),
 * the memory hierarchy, the simulated physical memory image, the
 * thread scheduler, and the statistics registry.
 *
 * A Machine corresponds to one experiment: harnesses construct one,
 * spawn simulated threads bound to cores, run the scheduler to
 * completion, and read throughput out of the stats.
 */

#ifndef FLEXTM_RUNTIME_MACHINE_HH
#define FLEXTM_RUNTIME_MACHINE_HH

#include <memory>
#include <vector>

#include "core/hw_context.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"
#include "sim/fault.hh"
#include "sim/progress.hh"
#include "sim/rng.hh"
#include "sim/sim_memory.hh"
#include "sim/stats.hh"
#include "sim/thread.hh"

namespace flextm
{

class TxOracle;
class CmPolicyBase;

/**
 * Thrown out of TxThread::charge when the machine's run deadline is
 * exceeded: harnesses that bound a run (livelock regression checks)
 * set a deadline, catch this in every thread body, and inspect the
 * partial results.  Unwinding the fibers - instead of abandoning them
 * mid-flight - lets their stack objects destruct cleanly.
 */
struct DeadlineExceeded
{
};

/** One simulated CMP plus its simulation kernel. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg = MachineConfig{});
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return cfg_; }
    Scheduler &scheduler() { return sched_; }
    SimMemory &memory() { return mem_; }
    MemorySystem &memsys() { return *memsys_; }
    StatRegistry &stats() { return stats_; }
    HwContext &context(CoreId c) { return contexts_[c]; }
    unsigned cores() const { return cfg_.cores; }

    /** The machine's fault plan; null when no faults are configured. */
    FaultPlan *faultPlan() { return fault_.enabled() ? &fault_ : nullptr; }

    /** Forward-progress layer (escalation, irrevocability, watchdog). */
    ProgressManager &progress() { return progress_; }

    /** The machine-wide contention-management policy object
     *  (MachineConfig::cmPolicy; a stateless process-wide
     *  singleton). */
    CmPolicyBase &cmPolicy() { return *cmPolicy_; }

    /** @name Run deadline
     *  When nonzero, TxThread::charge throws DeadlineExceeded once a
     *  thread's clock passes it (0 = unbounded). */
    /// @{
    void setDeadline(Cycles d) { deadline_ = d; }
    Cycles deadline() const { return deadline_; }
    /// @}

    /** Attached serializability oracle (null unless a harness set one). */
    TxOracle *oracle() { return oracle_; }

    void
    setOracle(TxOracle *o)
    {
        oracle_ = o;
        // The state auditor cross-checks signatures against the
        // oracle's per-transaction access log when one is recording.
        if (StateAuditor *a = memsys_->auditor())
            a->setOracle(o);
    }

    /** Deterministic per-purpose seed derivation. */
    std::uint64_t
    deriveSeed(std::uint64_t salt) const
    {
        return cfg_.seed * 0x9e3779b97f4a7c15ULL + salt;
    }

    /**
     * Run all spawned threads to completion and return the finish
     * time (max core clock).
     */
    Cycles
    run()
    {
        sched_.run();
        return sched_.maxClock();
    }

  private:
    MachineConfig cfg_;
    SimMemory mem_;
    StatRegistry stats_;
    std::vector<HwContext> contexts_;
    std::unique_ptr<MemorySystem> memsys_;
    Scheduler sched_;
    FaultPlan fault_;
    ProgressManager progress_;
    CmPolicyBase *cmPolicy_ = nullptr;
    Cycles deadline_ = 0;
    TxOracle *oracle_ = nullptr;
};

} // namespace flextm

#endif // FLEXTM_RUNTIME_MACHINE_HH
