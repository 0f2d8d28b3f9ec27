/**
 * @file
 * The FlexTM runtime (Sections 3.5-3.6): the software side of the
 * decoupled hardware.
 *
 * BEGIN_TRANSACTION (beginTx) establishes handlers, sets the
 * transaction status word (TSW) to active, ALoads it, and clears the
 * per-core signatures and CSTs.  Inside the transaction, reads and
 * writes issue TLoad/TStore (subsumption).  END_TRANSACTION
 * (commitTx) runs the Commit() routine of Figure 3: copy-and-clear
 * the W-R and W-W CSTs, abort every named enemy by CASing its TSW
 * from active to aborted, then CAS-Commit the local TSW.  Everything
 * is local: no commit tokens, write-set broadcast, or global
 * arbitration, so transactions commit and abort in parallel.
 *
 * In Eager mode the thread additionally traps to the conflict
 * manager (Polka) whenever an access's response messages report a
 * Threatened or Exposed-Read conflict, resolving it immediately.  In
 * Lazy mode conflicts simply accumulate in the CSTs until commit.
 */

#ifndef FLEXTM_RUNTIME_FLEXTM_RUNTIME_HH
#define FLEXTM_RUNTIME_FLEXTM_RUNTIME_HH

#include <vector>

#include "core/overflow_table.hh"
#include "runtime/conflict_manager.hh"
#include "runtime/tx_thread.hh"

namespace flextm
{

/** Machine-wide FlexTM software state shared by all threads. */
struct FlexTmGlobals
{
    explicit FlexTmGlobals(Machine &m)
        : eagerConflicts(m.stats().counter("flextm.eager_conflicts")),
          siAborts(m.stats().counter("flextm.strong_isolation_aborts")),
          commitKills(m.stats().counter("flextm.commit_kills")),
          commitDefers(m.stats().counter("progress.commit_defers")),
          txConflicts(m.stats().histogram("flextm.tx_conflicts")),
          tswOf(m.cores(), 0), karma(m.cores(), 0)
    {
    }

    /** @name Interned conflict/commit counters (hot: bumped per
     *  conflicting access / per commit, not per experiment). */
    /// @{
    Counter &eagerConflicts, &siAborts, &commitKills, &commitDefers;
    Histogram &txConflicts;
    /// @}

    /** Per-core address of the running transaction's TSW (0: none).
     *  This is the process-level registry the commit routine uses to
     *  find the status words of conflicting peers. */
    std::vector<Addr> tswOf;

    /** Per-core Polka priority of the running transaction. */
    std::vector<std::uint64_t> karma;

    /**
     * Deliberate-bug switch for oracle self-tests: commit without
     * aborting W-R enemies (readers of our write set survive with
     * stale data).  Never enable outside the harness teeth tests.
     */
    bool chaosSkipWrAbort = false;

    /**
     * The OS (Section 5; null when none is installed): when a
     * committing/managing transaction must abort the transactions of
     * processor k, the Conflict Management Table may also name
     * *suspended* transactions that last ran on k; the OS aborts
     * those by writing their (virtualized) status words.
     */
    OsHandler *os = nullptr;
};

/** A FlexTM thread (one per core in the experiments). */
class FlexTmThread : public TxThread
{
  public:
    FlexTmThread(Machine &m, FlexTmGlobals &globals, ThreadId tid,
                 CoreId core, ConflictMode mode);

    std::string name() const override;

    ConflictMode mode() const { return mode_; }

    /** The thread's overflow table (inspectable by tests/benches). */
    const OverflowTable &overflowTable() const { return tswTx_.ot; }

    /** Mutable OT access for the OS (paging retags entries while
     *  the owning thread is descheduled; Section 4.1). */
    OverflowTable &overflowTableForOs() { return tswTx_.ot; }

    /** Address of this thread's transaction status word. */
    Addr tswAddr() const { return tswAddr_; }

    /** @name Context-switch support (driven by TxOs, Section 5)
     *  All three must be called from this thread's own context.
     *
     *  Ordering matters: the OS snapshots the signatures/CSTs and
     *  installs the summary signatures at the directory *before*
     *  detaching the hardware state - otherwise remote accesses
     *  during the (multi-cycle) spill would be checked against
     *  neither the per-core signatures nor the summaries, and a
     *  conflict could slip through undetected. */
    /// @{
    struct OsSavedState
    {
        Signature rsig{2048, 4};
        Signature wsig{2048, 4};
        CstSet cst;
    };
    /** Copy sigs + CSTs into the descriptor (instantaneous). */
    void osSnapshot(OsSavedState &out);
    /** Spill TMI lines to the OT and clear the hardware state (the
     *  abort instruction); takes simulated time.  Returns the CST
     *  registers consumed at the end of the spill so the OS can
     *  merge conflict records that arrived after osSnapshot into the
     *  saved descriptor. */
    CstSet osDetach();
    void osRestore(const OsSavedState &in);
    /** Deliver-or-abort: take a pending AOU alert now (throwing
     *  TxAbort if it demands one) instead of parking it.  Used by
     *  the OS around suspend, where the alert flag would otherwise
     *  be lost - strong-isolation aborts never write the TSW that
     *  osRestore consults. */
    void osDeliverAlert();
    /// @}

  protected:
    void beginTx() override;
    bool commitTx() override;
    void abortCleanup() override;
    std::uint64_t txRead(Addr a, unsigned size) override;
    void txWrite(Addr a, std::uint64_t v, unsigned size) override;
    void injectSpuriousAlert() override { tswTx_.spuriousAlert(); }
    void injectRemoteAbort() override { tswTx_.remoteAbort(); }
    void pollAbort() override { checkAlert(); }

  private:
    /** The transaction on one peer core, as the contention manager
     *  sees it (eager-mode conflicts). */
    class CoreEnemy;

    FlexTmGlobals &g_;
    ConflictMode mode_;
    Addr tswAddr_;
    TswTx tswTx_;
    /** Union of cores this transaction conflicted with (for the
     *  Figure 4 conflicting-transactions statistic). */
    std::uint64_t txConflictMask_ = 0;

    /** Take any pending alert: abort if our TSW went to aborted, or
     *  re-ALoad it after a capacity alert. */
    void checkAlert();

    /** Eager mode: resolve the conflicts an access just reported. */
    void handleEagerConflicts(std::uint64_t enemies);

    /** Clear our bits out of remote CSTs (spurious-abort hygiene);
     *  @p cst is the register state captured at transaction end. */
    void selfCleanRemoteCsts(const CstSet &cst);
};

} // namespace flextm

#endif // FLEXTM_RUNTIME_FLEXTM_RUNTIME_HH
