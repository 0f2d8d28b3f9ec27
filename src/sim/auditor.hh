/**
 * @file
 * Cross-layer state auditor: whole-machine invariant sweeps.
 *
 * The fault harness and the serializability oracle catch corruption
 * only once it reaches commit-visible memory; by then the event that
 * planted it can be millions of cycles in the past.  The auditor
 * closes that gap: at configurable checkpoints (every protocol
 * transaction, every commit/abort, every OS suspend/resume) it sweeps
 * every structure the paper's correctness argument couples together
 * and asserts the cross-layer invariants directly:
 *
 *  I1 dir-l1        At most one core holds a line in M/E, no plain
 *                   sharers coexist with an M/E copy, and the
 *                   directory covers every cached copy: E => exclusive
 *                   is the holder, M => exclusive or owner bit, S/TI
 *                   => sharer bit, TMI => owner bit.  (The directory
 *                   may carry *extra* bits - sharer/owner entries are
 *                   sticky by design and pruned lazily - so the check
 *                   is one-sided containment plus the exclusivity
 *                   rules, not equality.)
 *  I2 inclusion     Every valid L1 line is backed by a valid L2 line.
 *  I3 sig-superset  Rsig/Wsig cover every line the active transaction
 *                   read/wrote: checked against the exact per-line
 *                   access log fed by the protocol engine, and
 *                   cross-checked against the oracle's per-txn op log.
 *  I4 cst-history   Every set CST bit is justified by a recorded
 *                   conflict event (threatened / exposed-read response
 *                   or summary-signature trap) seen this transaction.
 *  I5 cst-duality   Between two live transactional cores, my R-W[k]
 *                   implies k's W-R[me] and symmetrically (skipped in
 *                   the windows where it legitimately decays; see the
 *                   exclusion notes on sweep()).
 *  I6 ot-exclusive  An overflow-table entry's line is never also valid
 *                   in the owning core's L1, and the Osig covers it.
 *  I7 aou-live      Every AOU-marked line is either cached with its A
 *                   bit set or has a pending alert recorded.
 *  I8 htm-bounds    A core that declared itself a bounded hardware
 *                   transaction (the HyTM fast path) never exceeds its
 *                   declared read/write-set line bounds, and its
 *                   overflow table is only ever occupied after an
 *                   announced capacity overflow - i.e. every capacity
 *                   abort is justified, and no bounded transaction
 *                   silently virtualizes.  (Bounded cores register
 *                   with tracks_csts=false, so I4 still holds but I5
 *                   duality legitimately decays; I3/I6/I7 apply
 *                   unchanged.)
 *  I9 progressive   Progressiveness (Kuznetsov & Ravi): every enemy
 *                   abort a contention manager issues is justified by
 *                   a conflict recorded with the aggressor this
 *                   attempt - a CST bit (the I4 event log) or an
 *                   observed-enemy note from the CM itself - and the
 *                   irrevocability-token holder is never the victim.
 *                   Checked eagerly at the kill, not in the sweep:
 *                   the evidence is gone once the victim restarts.
 *
 * On violation the auditor prints a deterministic repro bundle - run
 * context (seed / runtime / workload from the oracle when attached),
 * config cell, cycle, the invariant and offending line, the last-K
 * protocol events from its trace ring, and the bisected window back
 * to the last clean checkpoint - then panics.  Tests that exercise
 * the auditor's teeth flip it into collect mode instead.
 *
 * The sweep charges no simulated cycles: it is a host-side oracle,
 * not a modelled structure, so enabling it cannot change simulated
 * behaviour - only catch it misbehaving.
 */

#ifndef FLEXTM_SIM_AUDITOR_HH
#define FLEXTM_SIM_AUDITOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace flextm
{

class MemorySystem;
class ProgressManager;
class TxOracle;

/** Which checkpoint class a sweep request comes from. */
enum class AuditScope
{
    Transition,   //!< end of one protocol transaction
    TxnBoundary,  //!< commit or abort completed
    Switch        //!< OS suspend/resume completed
};

/** Which CST register a conflict event set bits in. */
enum class CstKind
{
    Rw,
    Wr,
    Ww
};

/** One recorded invariant violation (collect mode). */
struct AuditViolation
{
    std::string invariant;
    std::string detail;
    Cycles cycle = 0;
    CoreId core = invalidCore;
    Addr addr = 0;
};

/** FLEXTM_AUDITOR override: off / txn / transition. */
AuditLevel envAuditLevel(AuditLevel fallback);

class StateAuditor
{
  public:
    StateAuditor(const MachineConfig &cfg, MemorySystem &ms);

    AuditLevel level() const { return level_; }

    /** Oracle for the I3 cross-check and the repro-bundle context
     *  string; optional. */
    void setOracle(const TxOracle *o) { oracle_ = o; }

    /** @name Runtime / OS cooperation notes
     *  Cheap bookkeeping the sweeps check against.  Cores that never
     *  call noteTxBegin (manually driven protocol tests, software
     *  runtimes) only get the pure protocol invariants I1/I2/I6. */
    /// @{
    /** A hardware transaction began on @p core.  @p tsw_active is the
     *  TSW encoding of "still running" at @p tsw (the auditor peeks
     *  it to exclude doomed transactions from I5).  @p tracks_csts
     *  opts the core into I4/I5 (FlexTM, which self-cleans remote
     *  CSTs at commit/abort); RTM-F passes false: it never consumes
     *  its CSTs, so remote bits toward it decay legitimately. */
    void noteTxBegin(CoreId core, ThreadId tid, Addr tsw,
                     std::uint32_t tsw_active, bool tracks_csts);
    void noteTxEnd(CoreId core);
    /** Commit/abort cleanup window: flash commit/abort, CST
     *  copy-and-clear, and remote self-cleaning are a multi-step
     *  software sequence; I5/I7 pause for the core while it runs.
     *  Nests (the commit routine's alert drain re-enters the alert
     *  handler, which opens its own window); on/off calls balance
     *  and noteTxEnd force-resets the depth. */
    void noteSettling(CoreId core, bool on);
    /** OS suspend taints I5 for the core until its transaction ends:
     *  peers self-clean only the live registers, so restored CSTs may
     *  carry stale (conservative, harmless) bits. */
    void noteSuspend(CoreId core);
    void noteResume(CoreId core);
    /** Protocol engine: a transactional access inserted @p line into
     *  the core's read (or write) signature. */
    void noteAccess(CoreId core, bool is_write, Addr line);
    /** Protocol engine / OS: conflict events that set CST bits.
     *  @p symmetric means the event set the reciprocal bit on the
     *  named cores in the same protocol transaction (the hardware
     *  responder/requestor pair), arming the I5 duality check for
     *  those pairs.  Pass false for bits that are one-sided by
     *  construction - summary-signature traps name a *suspended*
     *  transaction whose registers live in the OS descriptor, and
     *  restored descriptors may carry bits peers have long
     *  retired. */
    void noteCstSet(CoreId core, CstKind kind, std::uint64_t mask,
                    bool symmetric = true);
    /** Bounded-HTM runtime: the transaction begun on @p core runs
     *  under fixed read/write-set line bounds (arms I8).  Call after
     *  noteTxBegin; cleared by noteTxEnd. */
    void noteHtmBounded(CoreId core, unsigned read_lines,
                        unsigned write_lines);
    /** Bounded-HTM runtime: a capacity overflow occurred (a TMI line
     *  left the L1); the transaction is doomed and its OT occupancy
     *  is justified until it aborts. */
    void noteHtmOverflow(CoreId core);

    /** @name I9 progressiveness (contention-manager cooperation)
     *
     *  Software runtimes never call noteTxBegin, so the CM conflict
     *  log is kept separately and opened by TxThread::txn for every
     *  runtime. */
    /// @{
    /** A transaction attempt is starting on @p core: reset its CM
     *  conflict log. */
    void noteCmTxnStart(CoreId core);
    /** The contention manager on @p core observed @p enemy in its
     *  way (an eager conflict response, a locked header, a CST
     *  bit). */
    void noteCmConflict(CoreId core, CoreId enemy);
    /** The contention manager on @p aggressor is killing the
     *  transaction on @p victim: checked immediately against the
     *  recorded conflicts and the irrevocability-token holder. */
    void noteEnemyAbort(Cycles now, CoreId aggressor, CoreId victim);
    /** Who holds the irrevocability token (wired by Machine). */
    void setProgress(const ProgressManager *p) { progress_ = p; }
    /// @}

    /** Append one event to the repro trace ring. */
    void noteEvent(Cycles now, const char *what, CoreId core, Addr addr,
                   std::uint64_t aux = 0);

    /** Sweep if the configured level includes @p scope. */
    void checkpoint(AuditScope scope, Cycles now, const char *what);

    /** Unconditional full sweep (tests drive this directly). */
    void sweep(Cycles now, const char *what);

    /** @name Teeth-test support: record violations instead of
     *  panicking. */
    /// @{
    void setCollect(bool on) { collect_ = on; }
    const std::vector<AuditViolation> &violations() const
    {
        return violations_;
    }
    void clearViolations() { violations_.clear(); }
    /// @}

    std::uint64_t sweepsRun() const { return sweepsRun_; }

    /** The formatted repro bundle for the most recent violation. */
    const std::string &lastBundle() const { return lastBundle_; }

  private:
    struct PerCore
    {
        bool registered = false;    //!< inside noteTxBegin..noteTxEnd
        bool tracksCsts = false;
        int settling = 0;           //!< nesting depth (0 = not settling)
        bool virtualized = false;   //!< suspended at least once
        ThreadId tid = invalidThread;
        Addr tswAddr = 0;
        std::uint32_t tswActive = 0;
        std::uint64_t rwHist = 0, wrHist = 0, wwHist = 0;
        /** Bits whose reciprocal is not checkable: set one-sided
         *  (summary trap, restored descriptor) or naming a core whose
         *  resident transaction changed since the conflict.  A fresh
         *  symmetric conflict with a core re-arms its bit. */
        std::uint64_t oneSidedRw = 0, oneSidedWr = 0, oneSidedWw = 0;
        /** I8: bounded-HTM declaration for the current transaction. */
        bool htmBounded = false;
        bool htmOverflowAnnounced = false;
        unsigned htmReadBound = 0, htmWriteBound = 0;
        /** I9: enemies the CM observed conflicting this attempt
         *  (reset by noteCmTxnStart, independent of noteTxBegin so
         *  software runtimes are covered too). */
        std::uint64_t cmConflictHist = 0;
        FlatSet<Addr> readLines, writeLines;
    };

    struct Event
    {
        Cycles cycle = 0;
        const char *what = nullptr;
        CoreId core = invalidCore;
        Addr addr = 0;
        std::uint64_t aux = 0;
        std::uint64_t seq = 0;
    };

    /** View of one line across all L1s, rebuilt per sweep. */
    struct LineView
    {
        std::uint64_t m = 0, e = 0, s = 0, ti = 0, tmi = 0;
        std::uint64_t abit = 0;
    };

    const MachineConfig &cfg_;
    MemorySystem &ms_;
    AuditLevel level_;
    const TxOracle *oracle_ = nullptr;

    std::vector<PerCore> cores_;

    static constexpr std::size_t ringSize = 64;
    std::array<Event, ringSize> ring_{};
    std::uint64_t ringNext_ = 0;

    /** Bisection bounds: the violation happened after the last clean
     *  checkpoint and at or before the current one. */
    Cycles lastCleanCycle_ = 0;
    std::uint64_t lastCleanSeq_ = 0;
    const char *lastCleanWhat_ = "start";

    const ProgressManager *progress_ = nullptr;

    bool collect_ = false;
    bool inSweep_ = false;
    std::uint64_t sweepsRun_ = 0;
    std::vector<AuditViolation> violations_;
    std::string lastBundle_;

    /** Reused per sweep to avoid re-allocation. */
    FlatMap<Addr, LineView> view_;

    bool required(AuditScope scope) const;
    bool doomed(const PerCore &pc);
    /** The transaction resident on @p core changed (begin/end/park):
     *  peer bits naming it leave the duality-checkable set. */
    void markPeersOneSided(CoreId core);
    void violation(Cycles now, const char *invariant, CoreId core,
                   Addr addr, const std::string &detail);
    std::string bundle(Cycles now, const char *invariant, CoreId core,
                       Addr addr, const std::string &detail) const;

    void sweepLines(Cycles now);
    void sweepSignatures(Cycles now);
    void sweepCsts(Cycles now);
    void sweepOt(Cycles now);
    void sweepAou(Cycles now);
    void sweepHtmBounds(Cycles now);
};

} // namespace flextm

#endif // FLEXTM_SIM_AUDITOR_HH
