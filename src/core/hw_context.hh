/**
 * @file
 * Per-core FlexTM hardware state (the dark-outlined boxes of
 * Figure 2): access-tracking signatures, conflict summary tables, AOU
 * control, and the overflow-table controller registers.
 *
 * This struct is the contract between the coherence engine
 * (src/mem) and the TM runtime (src/runtime): the L1 controller reads
 * and updates it while servicing requests; the runtime configures it
 * at transaction boundaries; the OS saves and restores it across
 * context switches.  Everything here is software-visible by design
 * (Section 1: "All three mechanisms are kept software-accessible").
 */

#ifndef FLEXTM_CORE_HW_CONTEXT_HH
#define FLEXTM_CORE_HW_CONTEXT_HH

#include "core/aou.hh"
#include "core/cst.hh"
#include "core/overflow_table.hh"
#include "core/signature.hh"
#include "sim/types.hh"

namespace flextm
{

/** Conflict detection mode of the running transaction (Table 1 E/L). */
enum class ConflictMode
{
    Eager,
    Lazy
};

/**
 * The software handlers behind a core's trap vectors.  The thread
 * whose transaction runs on the core claims them at every begin
 * (HwContext::beginTx) and OS resume, not at construction, so several
 * threads can time-share one core; it releases them when destroyed.
 */
class TrapHandler
{
  public:
    /**
     * Strong isolation (Section 3.5): a *non-transactional* remote
     * access by @p aggressor hit this core's Rsig or Wsig, so this
     * core's transaction must abort for the plain access to
     * serialize before it.
     */
    virtual void strongAbort(CoreId aggressor) = 0;

    /**
     * OT allocation (Section 4.1): the first TMI eviction found no
     * OT installed.  The handler must allocate a table and set
     * HwContext::ot.
     */
    virtual void otAllocTrap() = 0;

  protected:
    ~TrapHandler() = default;
};

/** Per-core FlexTM processor/controller state. */
struct HwContext
{
    HwContext(CoreId core, unsigned sig_bits)
        : coreId(core), rsig(sig_bits), wsig(sig_bits)
    {
    }

    CoreId coreId;

    /** @name Access tracking (Section 3.1) */
    /// @{
    Signature rsig;
    Signature wsig;
    /// @}

    /** Conflict tracking registers (Section 3.2). */
    CstSet cst;

    /** Alert-on-update controller (Section 3.4). */
    AouController aou;

    /** Overflow-table controller register (Section 4): nullptr
     *  means no OT is installed; the first TMI overflow traps to
     *  software, which allocates one. */
    OverflowTable *ot = nullptr;

    /** True between BEGIN_TRANSACTION and commit/abort. */
    bool inTx = false;

    /** Conflict-detection mode of the current transaction. */
    ConflictMode mode = ConflictMode::Eager;

    /** FlexWatcher: check local accesses against Rsig/Wsig
     *  (the `activate Sig` instruction of Table 4a). */
    bool monitorActive = false;

    /** Owner of the trap vectors (null: none claimed). */
    TrapHandler *trap = nullptr;

    /** BEGIN_TRANSACTION: claim the trap vectors for @p owner and
     *  start from the clean registers endTx() leaves. */
    void
    beginTx(ConflictMode m, TrapHandler &owner)
    {
        endTx();
        trap = &owner;
        mode = m;
        inTx = true;
    }

    /** Commit or abort: clear the signatures and CSTs, acknowledge
     *  any pending alert and drop the OT.  The vectors stay claimed
     *  until their owner goes away. */
    void
    endTx()
    {
        rsig.clear();
        wsig.clear();
        cst.clearAll();
        aou.acknowledge();
        ot = nullptr;
        inTx = false;
    }

    /** Reset all transactional state (used between experiments). */
    void
    hardReset()
    {
        endTx();
        aou.reset();
        monitorActive = false;
    }
};

} // namespace flextm

#endif // FLEXTM_CORE_HW_CONTEXT_HH
