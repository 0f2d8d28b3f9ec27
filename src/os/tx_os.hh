/**
 * @file
 * OS-level transaction virtualization (Section 5): FlexTM
 * transactions are unbounded in time - they survive context switches
 * - because all of their hardware state is software-visible and can
 * be saved to, and conflict-checked from, virtual memory.
 *
 * On suspend, the OS:
 *   1. unions the thread's Rsig/Wsig into summary signatures
 *      (RSsig/WSsig) installed at the directory,
 *   2. spills TMI lines to the thread's overflow table, saves the
 *      signatures/CSTs/OT registers into the descriptor, and
 *   3. issues the abort instruction to clear the hardware state,
 * so every later conflicting access by a running thread misses in
 * the suspended thread's old cache and reaches the L2, where the
 * summary signatures are consulted.  On a summary hit the L2 traps
 * to a software handler on the *requesting* processor, which walks
 * the Conflict Management Table (CMT), tests the saved per-thread
 * signatures, and updates saved CSTs (lazy) or aborts the suspended
 * transaction through its virtualized status word (eager / strong
 * isolation).
 *
 * A Cores-Summary register tells the directory not to prune a
 * processor with suspended transactions from the sharer lists when
 * the line hits RSsig/WSsig.  Rescheduling to the same core restores
 * the saved state; migration aborts and restarts (the simple policy
 * the paper adopts for lazy versioning).
 */

#ifndef FLEXTM_OS_TX_OS_HH
#define FLEXTM_OS_TX_OS_HH

#include <vector>

#include "runtime/flextm_runtime.hh"

namespace flextm
{

/** The transaction-aware OS layer over one machine.  Installs itself
 *  as the machine's OsHandler for its lifetime. */
class TxOs final : private OsHandler, private CtxSwitchHandler
{
  public:
    TxOs(Machine &m, FlexTmGlobals &globals);
    ~TxOs();

    TxOs(const TxOs &) = delete;
    TxOs &operator=(const TxOs &) = delete;

    /**
     * Suspend the calling thread's transaction (the thread keeps
     * running non-transactionally; typically the harness switches
     * to another thread on the same core).  Must be called from
     * inside @p t's transaction.
     */
    void suspend(FlexTmThread &t);

    /** Resume a suspended transaction on its original core.  Throws
     *  TxAbort if it was aborted while suspended. */
    void resume(FlexTmThread &t);

    /**
     * Resume on a different core: FlexTM's migration policy is
     * abort-and-restart (lazy versioning does not re-acquire
     * ownership of written lines).  Always throws TxAbort.
     */
    [[noreturn]] void resumeMigrated(FlexTmThread &t);

    bool isSuspended(const FlexTmThread &t) const;
    std::size_t suspendedCount() const { return suspended_.size(); }

    /** Cores-Summary register (bit per processor with suspended
     *  transactions). */
    std::uint64_t coresSummary() const { return coresSummary_; }

    /**
     * OS paging support (Section 4.1): a logical page moved to a
     * new physical frame.  Retags OT entries and refreshes the
     * signatures of every thread that mapped the page.
     */
    void remapPage(Addr old_base, Addr new_base, std::size_t bytes);

    /**
     * Fault-injection support: arm @p t so that a CtxSwitch fault
     * fired mid-transaction suspends it, burns a plan-chosen slice
     * of non-transactional work, and resumes it (which may throw
     * TxAbort, exercising the Section 5 virtualization paths under
     * the serializability oracle).
     */
    void installFaultHook(FlexTmThread &t, FaultPlan &plan);

  private:
    struct Suspended
    {
        FlexTmThread *thread;
        CoreId core;
        FlexTmThread::OsSavedState saved;
    };

    Machine &m_;
    FlexTmGlobals &g_;
    std::vector<Suspended> suspended_;
    Signature rssig_;
    Signature wssig_;
    std::uint64_t coresSummary_ = 0;
    /** Draws the descheduled slice of installFaultHook's switches. */
    FaultPlan *plan_ = nullptr;

    void recomputeSummaries();
    MissCheck summaryMiss(CoreId requestor, ReqType t, Addr addr,
                          Cycles now) override;
    bool sticky(CoreId core, Addr addr) const override;
    void abortSuspendedOn(TxThread &self, CoreId core) override;
    void ctxSwitchFault(TxThread &t) override;
};

} // namespace flextm

#endif // FLEXTM_OS_TX_OS_HH
