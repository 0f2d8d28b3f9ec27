/**
 * @file
 * Bounded best-effort HTM with an STM fallback (HyTM) - the design
 * point FlexTM's virtualization hardware is measured against.
 *
 * The fast path uses the TMESI hardware the machine already has
 * (TLoad/TStore with signature tracking, TMI isolation, CAS-Commit),
 * but deliberately none of FlexTM's virtualization: no overflow-table
 * spill-and-continue, no AOU watch, no OS descriptor save/restore.
 * Read and write sets are tracked in FlatSets against small fixed
 * per-core capacity limits (MachineConfig::htmReadSetLines /
 * htmWriteSetLines); exceeding a bound, a TMI eviction, a context
 * switch, or any unresolved conflict response simply aborts the
 * hardware attempt (capacity/spurious abort).  Conflict policy is
 * requester-self-abort: the side whose access reports Threatened or
 * Exposed-Read dies immediately, so no surviving transaction ever
 * carries a live conflict into commit and CAS-Commit can skip the
 * CST check (stale bits name only dead requesters).
 *
 * After MachineConfig::htmRetryLimit consecutive hardware aborts the
 * attempt falls back to the software slow path - the TL2 runtime,
 * reused wholesale via inheritance.  Hardware and software modes are
 * serialized by a fallback gate (a count of active slow-path
 * transactions) that every hardware transaction subscribes into its
 * read set: slow-path begin increments the gate with a plain CAS,
 * which hits the subscribers' Rsigs and strong-aborts them; hardware
 * begin spins until the gate is clear and aborts if the subscription
 * read still observes a nonzero gate.  Escalated (irrevocable)
 * transactions go straight to the slow path, since a best-effort HTM
 * attempt can always abort spuriously.
 */

#ifndef FLEXTM_RUNTIME_HYTM_RUNTIME_HH
#define FLEXTM_RUNTIME_HYTM_RUNTIME_HH

#include "core/overflow_table.hh"
#include "runtime/tl2_runtime.hh"
#include "sim/flat_map.hh"

namespace flextm
{

/**
 * Reject HTM capacity knobs the hardware could not implement: a
 * read set with no room beside the fallback-lock subscription, an
 * empty write set, a zero retry budget (the fallback would never
 * engage... from a path that cannot run), or a write bound the L1
 * cannot retain (TMI lines must not spill - in the worst case every
 * write maps to one set, so ways + victim entries is the limit).
 * Runs when a HyTM runtime is built; death-tested directly.
 */
void validateHtmConfig(const MachineConfig &cfg);

/** Machine-wide HyTM shared state: the slow path's TL2 metadata plus
 *  the fallback gate. */
struct HyTmGlobals
{
    explicit HyTmGlobals(Machine &m);

    /** The STM slow path's clock and lock table (reused as-is). */
    Tl2Globals tl2;

    /** Fallback gate: count of active slow-path transactions (own
     *  cache line; subscribed into every hardware read set). */
    Addr gateAddr;

    /** @name Interned mode/abort accounting (hot counters). */
    /// @{
    Counter &htmCommits;       //!< fast-path commits
    Counter &slowCommits;      //!< slow-path (TL2) commits
    Counter &capacityAborts;   //!< bound exceeded or TMI eviction
    Counter &conflictAborts;   //!< conflict response or strong abort
    Counter &gateAborts;       //!< subscription saw the gate held
    Counter &spuriousAborts;   //!< context switch / spurious alert
    Counter &overflowTraps;    //!< TMI evictions caught by the trap
    /// @}
};

/**
 * One HyTM thread.  Derives from Tl2Thread so the slow path *is* the
 * TL2 implementation (begin/read/write/commit/cleanup forwarded
 * verbatim); the overrides add the hardware fast path and the
 * mode-selection policy.
 */
class HyTmThread : public Tl2Thread,
                   private TrapHandler,
                   private CtxSwitchHandler
{
  public:
    HyTmThread(Machine &m, HyTmGlobals &g, ThreadId tid, CoreId core);
    ~HyTmThread() override;

    std::string name() const override { return "HyTM"; }

    /** Address of this thread's transaction status word. */
    Addr tswAddr() const { return tswAddr_; }

  protected:
    void beginTx() override;
    bool commitTx() override;
    void abortCleanup() override;
    std::uint64_t txRead(Addr a, unsigned size) override;
    void txWrite(Addr a, std::uint64_t v, unsigned size) override;
    void injectSpuriousAlert() override;

  private:
    HyTmGlobals &hg_;
    Addr tswAddr_;
    bool slowMode_ = false;
    bool gateHeld_ = false;      //!< slow mode: gate increment live
    bool strongAborted_ = false; //!< strong-isolation / gate trap
    bool overflowed_ = false;    //!< a TMI line left the L1

    /** Tracked line-granular footprint of the hardware attempt
     *  (readSet_ includes the fallback-gate line). */
    FlatSet<Addr> readSet_, writeSet_;

    /**
     * Emergency overflow table: a bounded HTM has no OT, but the
     * protocol engine requires somewhere to put a TMI line it is
     * forced to evict (fault injection, pathological indexing).  The
     * trap that installs it marks the attempt overflowed, so the
     * transaction capacity-aborts at its next check and the table's
     * contents are discarded - it never virtualizes a commit.
     */
    OverflowTable emergencyOt_;

    /** Strong isolation and the fallback gate both arrive as a remote
     *  GETX hitting our signatures. */
    void strongAbort(CoreId aggressor) override;
    /** A TMI line forced out of the L1 (fault injection). */
    void otAllocTrap() override;
    /** A bounded HTM cannot survive losing the processor. */
    void ctxSwitchFault(TxThread &) override;

    /** Abort-if-doomed: overflow, strong abort, or a conflict
     *  response from the access just issued. */
    void postAccessCheck(const MemResult &r);

    /** Drop all hardware-side transactional state. */
    void resetHwTxState();

    /** @name Fallback-gate arithmetic (plain CAS loops). */
    /// @{
    void gateAcquire();
    void gateRelease();
    /// @}
};

} // namespace flextm

#endif // FLEXTM_RUNTIME_HYTM_RUNTIME_HH
