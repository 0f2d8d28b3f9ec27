/**
 * @file
 * The per-thread transactional programming interface.
 *
 * Workloads are written once against TxThread and run unchanged on
 * any of the seven runtimes (FlexTM eager/lazy, CGL, RSTM, TL2,
 * RTM-F, HyTM).  Inside txn(), read()/write() carry transactional
 * semantics (following the paper's subsumption convention: ordinary
 * accesses inside a transaction are interpreted transactionally);
 * outside, they are plain coherent accesses.
 *
 * Aborts are modelled with the TxAbort exception: runtime internals
 * throw it when the transaction must restart, txn() catches it, runs
 * the runtime's cleanup and back-off, and re-executes the body.
 */

#ifndef FLEXTM_RUNTIME_TX_THREAD_HH
#define FLEXTM_RUNTIME_TX_THREAD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/machine.hh"
#include "runtime/tx_abort.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace flextm
{

/** Transaction status word values (Table 1). */
enum TswValue : std::uint32_t
{
    TswActive = 1,
    TswCommitted = 2,
    TswAborted = 3
};

class TxThread;

/** Work a thread runs on its processor after each abort, before the
 *  retry back-off (the co-scheduled task of Figure 5e-f). */
class AbortYieldTask
{
  public:
    virtual void runAfterAbort(TxThread &t) = 0;

  protected:
    ~AbortYieldTask() = default;
};

/** Reaction to a fault-injected mid-transaction context switch; may
 *  throw TxAbort. */
class CtxSwitchHandler
{
  public:
    virtual void ctxSwitchFault(TxThread &t) = 0;

  protected:
    ~CtxSwitchHandler() = default;
};

/** Abstract per-thread runtime handle. */
class TxThread
{
  public:
    TxThread(Machine &m, ThreadId tid, CoreId core);
    virtual ~TxThread();

    TxThread(const TxThread &) = delete;
    TxThread &operator=(const TxThread &) = delete;

    /** Execute @p body as an atomic transaction, retrying on abort
     *  until it commits. */
    void txn(const std::function<void()> &body);

    /**
     * Closed-nested transaction (the nesting extension of
     * Section 9).  Outside a transaction it behaves exactly like
     * txn().  Inside one, the nested body's writes are undo-logged:
     * abortNested() (or a NestedAbort escaping @p body) rolls back
     * only the nested level's writes and txnNested returns false -
     * the surrounding transaction continues.  External aborts
     * (conflicts) still restart the whole outermost transaction:
     * signatures cannot shrink, so the conflict footprint is that of
     * the flat transaction (a faithful model of what FlexTM hardware
     * could support without per-level T bits).
     *
     * @return true if the nested level completed, false if it was
     *         rolled back via abortNested().
     */
    bool txnNested(const std::function<void()> &body);

    /** Abort the innermost nested level (no effect on the parent). */
    [[noreturn]] void abortNested();

    /** Read @p size bytes at @p a (transactional inside txn()). */
    std::uint64_t read(Addr a, unsigned size);

    /** Write @p size bytes at @p a (transactional inside txn()). */
    void write(Addr a, std::uint64_t v, unsigned size);

    template <typename T>
    T
    load(Addr a)
    {
        static_assert(sizeof(T) <= 8);
        return static_cast<T>(read(a, sizeof(T)));
    }

    template <typename T>
    void
    store(Addr a, T v)
    {
        static_assert(sizeof(T) <= 8);
        write(a, static_cast<std::uint64_t>(v), sizeof(T));
    }

    /** Charge @p n cycles of non-memory computation (IPC = 1). */
    void work(Cycles n);

    /**
     * Atomic compare-and-swap outside transactions (locks, status
     * words, lock-free updates racing with transactions under
     * strong isolation).  Must not be used inside txn().
     */
    CasOutcome atomicCas(Addr a, std::uint64_t expected,
                         std::uint64_t desired, unsigned size);

    /** Simulated heap allocation (charges allocator work). */
    Addr alloc(std::size_t bytes, std::size_t align = 8);
    void freeMem(Addr a);

    /**
     * Transaction-safe free: deferred until the surrounding
     * transaction commits (dropped - leaked - if it aborts, since
     * the node may still be reachable in the pre-transaction state).
     * Outside a transaction it frees immediately.
     */
    void txFree(Addr a);

    /** True while executing inside txn(). */
    bool inTx() const { return inTx_; }

    /**
     * Request irrevocability for the next txn(): before its first
     * attempt the thread acquires the machine-wide irrevocability
     * token (waiting for a current holder to drain) and keeps it
     * until that transaction commits.  While it holds the token,
     * competitors stall at transaction begin and contention managers
     * never abort it - the serial fallback programmers use for
     * I/O-like bodies, and the same mechanism starvation escalation
     * and the livelock watchdog engage automatically.  Must be
     * called outside a transaction.
     */
    void requestIrrevocable();

    /** True while this thread holds the irrevocability token. */
    bool irrevocable() const;

    /** @name Transactional pause / restart (Section 3.5)
     *
     * The paper's programming model supports "transactional pause
     * and restart": inside a paused region, ordinary loads and
     * stores bypass transactional semantics (the special
     * non-transactional instructions) - useful for updating software
     * metadata, thread-private buffers, or open-nesting-style
     * side effects that must not roll back or conflict. */
    /// @{
    /** Enter a paused (non-transactional) region. */
    void pauseTx();
    /** Leave the paused region, resuming transactional semantics. */
    void unpauseTx();
    bool paused() const { return paused_; }
    /** Explicitly restart the current transaction from the top. */
    [[noreturn]] void restartTx();
    /// @}

    Machine &machine() { return m_; }
    CoreId core() const { return core_; }
    ThreadId tid() const { return tid_; }
    Rng &rng() { return rng_; }

    std::uint64_t commits() const { return commits_; }
    std::uint64_t aborts() const { return aborts_; }

    /**
     * Multiprogramming (Section 7.4, Figure 5e-f): run @p task after
     * every abort, before the retry back-off, so a harness can yield
     * the processor to a co-scheduled compute-bound task.
     */
    void setOnAbortYield(AbortYieldTask *task) { onAbortYield_ = task; }

    /**
     * Fault injection: @p h takes the CtxSwitch faults the machine's
     * FaultPlan fires mid-transaction, from the access path.  TxOs
     * turns them into a real suspend/resume cycle; HyTM into an
     * abort.  Without a handler the fault is never drawn.
     */
    void setCtxSwitchFaultHook(CtxSwitchHandler *h) { ctxSwitchHook_ = h; }

    /** Name of the runtime (for reports). */
    virtual std::string name() const = 0;

    /**
     * True for object-based runtimes (RSTM, RTM-F) whose programming
     * model routes shared-object accesses through per-object
     * metadata even outside transactions (smart-pointer
     * indirection).  Data-parallel workloads (Delaunay) use this to
     * model the extra metadata cache misses the paper attributes to
     * those systems.
     */
    virtual bool objectBased() const { return false; }

  protected:
    /** @name Runtime-specific transaction machinery */
    /// @{
    virtual void beginTx() = 0;
    /** Attempt to commit; true on success.  May throw TxAbort. */
    virtual bool commitTx() = 0;
    /** Undo runtime state after an abort (flash state, locks...). */
    virtual void abortCleanup() = 0;
    virtual std::uint64_t txRead(Addr a, unsigned size) = 0;
    virtual void txWrite(Addr a, std::uint64_t v, unsigned size) = 0;
    /// @}

    /** Back-off between retries; default randomized exponential. */
    virtual void backoffBeforeRetry();

    /**
     * The attacker's own abort poll, run by the contention manager
     * between back-off rounds: throws TxAbort if an enemy killed this
     * transaction while it waited (without it, two stalled
     * transactions could ignore each other's kill shots).  The
     * default no-op serves runtimes that never call resolve().
     */
    virtual void pollAbort() {}

    /** @name Fault-injection reactions (runtime-specific)
     *
     * Called mid-transaction from read()/write() when the machine's
     * FaultPlan fires.  The spurious alert must be survivable (the
     * transaction re-establishes its watch and continues); the
     * remote abort models an enemy killing us and must take the
     * runtime's real abort path. */
    /// @{
    virtual void injectSpuriousAlert() {}
    virtual void injectRemoteAbort();
    /// @}

    /** Roll the fault dice after a transactional access. */
    void maybeInjectFaults();

    /** FlexTM's and RTM-F's shared status-word machinery (below). */
    class TswTx;

    /**
     * Forward-progress gate before each attempt: escalated threads
     * claim the irrevocability token (waiting out a current holder);
     * everyone else stalls while another thread holds it.
     */
    void awaitTxnSlot();

    /** Record the serialization stamp at the runtime's linearization
     *  point (no-op when no oracle is attached).  Callers must not
     *  yield between the linearizing protocol action and this. */
    void oracleStamp();

    /** @name Plain coherent accesses (charge real protocol time) */
    /// @{
    std::uint64_t plainRead(Addr a, unsigned size);
    void plainWrite(Addr a, std::uint64_t v, unsigned size);
    CasOutcome casWord(Addr a, std::uint64_t expected,
                       std::uint64_t desired, unsigned size);
    /// @}

    /** Charge @p lat cycles and yield to the scheduler. */
    void charge(Cycles lat);

    /** The hardware context of this thread's core. */
    HwContext &ctx() { return m_.context(core_); }

    Machine &m_;
    ThreadId tid_;
    CoreId core_;

    /** Interned per-transaction counters (shared across the
     *  machine's threads; bumping one is a plain increment). */
    struct HotCounters
    {
        explicit HotCounters(StatRegistry &s);
        Counter &txCommits, &txAborts;
        Counter &txNestedCommits, &txNestedAborts;
        Counter &faultSpuriousAlerts, &faultForcedAborts;
        Counter &progressTokenWaits, &progressBeginStalls;
        Counter &cmSelfAborts, &cmEnemyAborts, &cmBackoffs;
        Counter &cmIrrevocableStalls;
    };
    HotCounters ctr_;
    friend class CmPolicyBase;

    /** Per-thread commit/abort counters (thread.<tid>.*): the
     *  starvation report reads these out of every run's stats. */
    Counter &threadCommits_;
    Counter &threadAborts_;
    /** End-to-end commit latency (first attempt begin -> commit). */
    Histogram &commitLatency_;
    /** aborts.byCause.* handles, interned on a cause's first abort so
     *  the per-abort path never builds a lookup string (and dumps
     *  only name causes that actually fired). */
    Counter *abortsByCause_[kNumAbortCauses] = {};
    /** Cached auditor (null when AuditLevel::Off): the per-attempt
     *  enablement check is one pointer test, not a getter chain. */
    StateAuditor *auditor_;

    Rng rng_;
    bool inTx_ = false;
    bool paused_ = false;
    bool escalateNext_ = false;  //!< requestIrrevocable() pending
    unsigned attempt_ = 0;   //!< retries of the current transaction
    std::uint64_t commits_ = 0;
    std::uint64_t aborts_ = 0;
    AbortYieldTask *onAbortYield_ = nullptr;
    CtxSwitchHandler *ctxSwitchHook_ = nullptr;
    std::vector<Addr> deferredFrees_;

    /** Closed-nesting support: software undo log of (addr, size,
     *  pre-write speculative value), plus per-level start marks. */
    struct UndoEntry
    {
        Addr addr;
        unsigned size;
        std::uint64_t old;
    };
    std::vector<UndoEntry> nestUndo_;
    std::vector<std::size_t> nestMarks_;
};

/**
 * What FlexTM and RTM-F share around their transaction status word
 * (TSW): activating and ALoading it at begin, the overflow table, the
 * strong-isolation and OT-allocation traps (Sections 3.5, 4.1), the
 * fault reactions that alert through it, and the end-of-transaction
 * reset.  Each of those threads holds one.
 */
class TxThread::TswTx final : public TrapHandler
{
  public:
    /** @p tsw_of and @p karma are the runtime's per-core registries
     *  of running transactions. */
    TswTx(TxThread &self, Addr tsw, std::vector<Addr> &tsw_of,
          std::vector<std::uint64_t> &karma);
    ~TswTx();

    TswTx(const TswTx &) = delete;
    TswTx &operator=(const TswTx &) = delete;

    /** Activate and ALoad the TSW, claim the core
     *  (HwContext::beginTx) and register in the per-core tables. */
    void begin(ConflictMode mode, bool tracks_csts);
    /** Commit or abort, after the runtime's own teardown: drop the
     *  TSW watch, the core's registers and the table entries. */
    void end();

    /** @name Fault reactions, taken at once through pollAbort() */
    /// @{
    /** A capacity alert on the TSW: survivable, the handler
     *  re-establishes the watch. */
    void spuriousAlert();
    /** An enemy's commit-time kill: CAS the TSW to aborted and alert,
     *  driving the full abort path. */
    void remoteAbort();
    /// @}

    void strongAbort(CoreId aggressor) override;
    void otAllocTrap() override;

    /** The thread's overflow table (installed by the OT trap). */
    OverflowTable ot;
    /** Set by the strong-isolation trap: a non-transactional remote
     *  access requires this transaction to abort. */
    bool strongAborted = false;

  private:
    TxThread &self_;
    const Addr tsw_;
    std::vector<Addr> &tswOf_;
    std::vector<std::uint64_t> &karma_;
};

/** Runtime selector for factories and harnesses. */
enum class RuntimeKind
{
    FlexTmEager,
    FlexTmLazy,
    Cgl,
    Rstm,
    Tl2,
    RtmF,
    HyTm
};

const char *runtimeKindName(RuntimeKind k);

} // namespace flextm

#endif // FLEXTM_RUNTIME_TX_THREAD_HH
