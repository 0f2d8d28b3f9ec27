#include "runtime/flextm_runtime.hh"

#include <bit>

#include "runtime/conflict_manager.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace flextm
{

class FlexTmThread::CoreEnemy final : public CmEnemy
{
  public:
    CoreEnemy(FlexTmThread &self, CoreId k) : self_(self), k_(k) {}

    bool
    active() override
    {
        const Addr enemy_tsw = self_.g_.tswOf[k_];
        if (enemy_tsw == 0)
            return false;
        return static_cast<std::uint32_t>(
                   self_.plainRead(enemy_tsw, 4)) == TswActive;
    }

    void
    abort() override
    {
        const Addr enemy_tsw = self_.g_.tswOf[k_];
        if (enemy_tsw != 0)
            self_.casWord(enemy_tsw, TswActive, TswAborted, 4);
        if (self_.g_.os)
            self_.g_.os->abortSuspendedOn(self_, k_);
    }

    std::uint64_t
    karma() override
    {
        self_.work(2);  // reading the enemy descriptor
        return self_.g_.karma[k_];
    }

    bool
    irrevocable() override
    {
        return self_.m_.progress().isIrrevocableCore(k_);
    }

    CoreId core() const override { return k_; }

  private:
    FlexTmThread &self_;
    const CoreId k_;
};

FlexTmThread::FlexTmThread(Machine &m, FlexTmGlobals &globals,
                           ThreadId tid, CoreId core, ConflictMode mode)
    : TxThread(m, tid, core), g_(globals), mode_(mode),
      // The TSW occupies its own cache line so AOU on it never
      // aliases with data.
      tswAddr_(m.memory().allocate(lineBytes, lineBytes)),
      tswTx_(*this, tswAddr_, globals.tswOf, globals.karma)
{
}

std::string
FlexTmThread::name() const
{
    return mode_ == ConflictMode::Eager ? "FlexTM-Eager" : "FlexTM-Lazy";
}

void
FlexTmThread::beginTx()
{
    sim_assert(!ctx().inTx, "beginTx with transaction already active");
    txConflictMask_ = 0;
    // Duality (auditor invariant I5) holds because commit/abort
    // retire our bits from remote CSTs (selfCleanRemoteCsts).
    tswTx_.begin(mode_, /*tracks_csts=*/true);

    // Register checkpointing: spill of local registers to the stack
    // (the paper's main remaining software overhead; Section 7.3).
    work(25);
    FTRACE(Tm, m_.scheduler().now(), "core%u begin tx (%s)", core_,
           mode_ == ConflictMode::Eager ? "eager" : "lazy");
}

void
FlexTmThread::checkAlert()
{
    HwContext &c = ctx();
    if (!c.aou.alertPending())
        return;
    const AlertCause cause = c.aou.lastCause();
    c.aou.acknowledge();
    // Until the watch is re-established below, the marked TSW line
    // may legitimately be uncached with no pending alert; suppress
    // the auditor's AOU-liveness check for the handler window.  (On
    // the throwing paths the flag is cleared by noteTxEnd.)
    StateAuditor *auditor = m_.memsys().auditor();
    if (auditor)
        auditor->noteSettling(core_, true);

    if (tswTx_.strongAborted) {
        ++g_.siAborts;
        throw TxAbort{AbortCause::EnemyKill};
    }
    // The handler inspects the TSW; if an enemy aborted us, unroll.
    const auto tsw =
        static_cast<std::uint32_t>(plainRead(tswAddr_, 4));
    if (tsw == TswAborted)
        throw TxAbort{AbortCause::EnemyKill};
    if (cause == AlertCause::Capacity) {
        // The marked line was evicted; re-establish the watch.
        charge(m_.memsys().aload(core_, tswAddr_, m_.scheduler().now()));
    }
    if (auditor)
        auditor->noteSettling(core_, false);
}

void
FlexTmThread::handleEagerConflicts(std::uint64_t enemies)
{
    ConflictSummaryTable::forEach(enemies, [&](CoreId k) {
        ++g_.eagerConflicts;
        CoreEnemy enemy(*this, k);
        m_.cmPolicy().resolve(*this, g_.karma[core_], enemy);

        // Do NOT retire k's bits from our CSTs here.  resolve()'s
        // last enemy-status read yields before returning, so core k
        // can begin a fresh transaction and conflict with us again in
        // that window - a clear would erase the commit-time kill
        // obligation those new bits represent, letting both sides
        // commit around an unserializable read.  Bits belonging to
        // the dead transaction are retired by its own
        // selfCleanRemoteCsts pass; any that linger merely make our
        // commit's kill CAS hit an already-settled status word.
    });
}

std::uint64_t
FlexTmThread::txRead(Addr a, unsigned size)
{
    std::uint64_t v = 0;
    MemResult r = m_.memsys().access(core_, AccessType::TLoad, a, size,
                                     &v, m_.scheduler().now());
    charge(r.latency);
    ++g_.karma[core_];
    txConflictMask_ |= r.threatenedBy | r.exposedReadBy;
    checkAlert();
    if (mode_ == ConflictMode::Eager && r.hasConflict())
        handleEagerConflicts(r.threatenedBy | r.exposedReadBy);
    return v;
}

void
FlexTmThread::txWrite(Addr a, std::uint64_t v, unsigned size)
{
    MemResult r = m_.memsys().access(core_, AccessType::TStore, a, size,
                                     &v, m_.scheduler().now());
    charge(r.latency);
    ++g_.karma[core_];
    txConflictMask_ |= r.threatenedBy | r.exposedReadBy;
    checkAlert();
    if (mode_ == ConflictMode::Eager && r.hasConflict())
        handleEagerConflicts(r.threatenedBy | r.exposedReadBy);
}

bool
FlexTmThread::commitTx()
{
    HwContext &c = ctx();
    checkAlert();

    // From the first copy-and-clear until CAS-Commit resolves, our
    // registers are empty while un-killed victims still hold their
    // reciprocal bits: a legal asymmetry the auditor must not flag.
    // Every exit path funnels through noteTxEnd, which resets the
    // settling depth.
    if (StateAuditor *a = m_.memsys().auditor())
        a->noteSettling(core_, true);

    // The Commit() routine of Figure 3: non-blocking, entirely local.
    for (;;) {
        // Serial-irrevocable fallback: a peer running under the
        // irrevocability token may not be killed.  Defer - abort
        // ourselves and retry once the holder drains (we then stall
        // at the next begin until it commits).  Peek the registers
        // non-destructively: the throw must happen before the
        // copy-and-clear below consumes them, or abortCleanup's CST
        // hygiene pass would miss the reciprocal bits and peers would
        // keep conflict records against a dead transaction.
        bool defer = false;
        ConflictSummaryTable::forEach(c.cst.wr.raw() | c.cst.ww.raw(),
                                      [&](CoreId k) {
            if (k != core_ && m_.progress().isIrrevocableCore(k))
                defer = true;
        });
        if (defer) {
            ++g_.commitDefers;
            throw TxAbort{AbortCause::IrrevocableDefer};
        }

        // Policy gate, same pre-copy-and-clear position as the defer
        // check: requester-abort and timestamp policies yield the
        // commit window to still-active enemies instead of killing
        // them.  Built from host-side peeks only (zero simulated
        // cycles), and a no-op under the default committer-wins
        // policies, so the Polka path is untouched.
        std::uint64_t active_enemies = 0;
        ConflictSummaryTable::forEach(
            c.cst.wr.raw() | c.cst.ww.raw(), [&](CoreId k) {
                const Addr enemy_tsw = g_.tswOf[k];
                if (k == core_ || enemy_tsw == 0)
                    return;
                std::uint32_t tsw = 0;
                m_.memsys().peek(enemy_tsw, &tsw, 4);
                if (tsw == TswActive)
                    active_enemies |= std::uint64_t{1} << k;
            });
        m_.cmPolicy().lazyCommitGate(*this, active_enemies);

        // 1. copy-and-clear W-R and W-W registers
        const std::uint64_t wr_enemies = c.cst.wr.copyAndClear();
        const std::uint64_t enemies =
            (g_.chaosSkipWrAbort ? 0 : wr_enemies) |
            c.cst.ww.copyAndClear();
        txConflictMask_ |= enemies;
        charge(1);

        // 2-3. abort every conflicting peer by CASing its TSW.  The
        // conflicting processor may also host suspended transactions
        // (Conflict Management Table, Section 5) - the OS hook
        // aborts those through their virtualized status words.
        ConflictSummaryTable::forEach(enemies, [&](CoreId k) {
            const Addr enemy_tsw = g_.tswOf[k];
            if (enemy_tsw != 0 && k != core_) {
                // The defer sweep above ran before this loop's yield
                // windows, and the token is only ever acquired at
                // transaction begin: an enemy that is irrevocable
                // *now* began a fresh transaction after the conflict
                // this bit records, so the bit is stale and the
                // token holder may not be killed.  If the fresh
                // transaction genuinely conflicts, its new CST bits
                // fail the CAS-Commit below and the retry defers.
                if (m_.progress().isIrrevocableCore(k))
                    return;
                // I9: the kill is justified by the CST bit that put
                // k into the enemies mask.
                if (StateAuditor *a = m_.memsys().auditor())
                    a->noteEnemyAbort(m_.scheduler().now(), core_, k);
                CasOutcome o =
                    casWord(enemy_tsw, TswActive, TswAborted, 4);
                if (o.success)
                    ++g_.commitKills;
            }
            if (g_.os)
                g_.os->abortSuspendedOn(*this, k);
        });

        // The kill loop above yields once per enemy CAS; a plain
        // (non-transactional) writer may have hit our signatures in
        // one of those windows and demanded our abort via an AOU
        // alert - without ever touching our TSW.  Drain such alerts
        // here, or the CAS-Commit below would publish a transaction
        // that strong isolation already ordered after the plain
        // write's pre-transactional view.
        while (c.aou.alertPending())
            checkAlert();

        // 4. CAS-Commit our own status word
        CommitResult cr = m_.memsys().casCommit(
            core_, tswAddr_, TswActive, TswCommitted,
            m_.scheduler().now());
        // The successful CAS-Commit is the serialization point; the
        // stamp must be taken before the latency charge yields.
        if (cr.outcome == CommitOutcome::Committed)
            oracleStamp();
        charge(cr.latency);

        switch (cr.outcome) {
          case CommitOutcome::Committed: {
            g_.txConflicts.add(std::popcount(txConflictMask_));
            // Drop transactional hardware state *before* the remote
            // CST hygiene pass (which takes time): once the TSW says
            // committed, our signatures must stop producing conflict
            // hints or peers would record conflicts against a dead
            // transaction.
            const CstSet saved_cst = ctx().cst;
            tswTx_.end();
            selfCleanRemoteCsts(saved_cst);
            return true;
          }
          case CommitOutcome::FailedCsts:
            // 5. new conflicts arrived between the clear and the
            // CAS-Commit: restart the routine.
            continue;
          case CommitOutcome::FailedAborted:
            // An enemy beat us to our own TSW; the controller has
            // already flash-aborted our speculative state.
            throw TxAbort{AbortCause::EnemyKill};
        }
    }
}

void
FlexTmThread::selfCleanRemoteCsts(const CstSet &cst)
{
    // The "clean itself out of X's W-R" optimization (Section 3.6):
    // CST registers are software-visible (Section 3.2); retiring our
    // bits from peers avoids spuriously aborting their next
    // transactions.
    Cycles cost = 0;
    ConflictSummaryTable::forEach(cst.rw.raw(), [&](CoreId j) {
        m_.context(j).cst.wr.clearBit(core_);
        cost += 2;
    });
    ConflictSummaryTable::forEach(cst.wr.raw(), [&](CoreId j) {
        m_.context(j).cst.rw.clearBit(core_);
        cost += 2;
    });
    ConflictSummaryTable::forEach(cst.ww.raw(), [&](CoreId j) {
        m_.context(j).cst.ww.clearBit(core_);
        cost += 2;
    });
    if (cost)
        work(cost);
}

void
FlexTmThread::osSnapshot(OsSavedState &out)
{
    HwContext &c = ctx();
    sim_assert(c.inTx, "osSnapshot outside a transaction");
    out.rsig = c.rsig;
    out.wsig = c.wsig;
    out.cst = c.cst;
}

CstSet
FlexTmThread::osDetach()
{
    HwContext &c = ctx();
    sim_assert(c.inTx, "osDetach outside a transaction");

    // Spill TMI lines to the overflow table and drop TI lines, so
    // any later conflicting access misses and reaches the directory
    // where the summary signatures (already installed by the
    // caller) are checked (Section 5).  The per-core signatures are
    // still live during the spill, so conflicts in flight are
    // caught by whichever mechanism sees them first.
    c.ot = &tswTx_.ot;
    charge(m_.memsys().flushTransactionalState(core_,
                                               m_.scheduler().now()));

    // The abort instruction then clears the hardware state; the OT
    // keeps the speculative values (it lives in virtual memory).
    // The CST registers are consumed with copy-and-clear and handed
    // back to the OS: responders kept setting bits in them while the
    // multi-cycle flush above ran, and a plain clear here would
    // erase those conflict records before the OS merges the live
    // registers into the saved descriptor.
    c.rsig.clear();
    c.wsig.clear();
    CstSet live;
    live.rw.setRaw(c.cst.rw.copyAndClear());
    live.wr.setRaw(c.cst.wr.copyAndClear());
    live.ww.setRaw(c.cst.ww.copyAndClear());
    m_.memsys().arelease(core_, tswAddr_);
    // Deliberately NOT acknowledging a pending alert: an alert that
    // raced the suspend (strong isolation never touches our TSW)
    // must survive to the caller's deliver-or-abort pass, or the
    // transaction would resume unserializably.
    c.ot = nullptr;
    c.inTx = false;
    g_.tswOf[core_] = 0;
    if (StateAuditor *a = m_.memsys().auditor())
        a->noteTxEnd(core_);
    work(60);  // OS save path
    ++m_.stats().counter("os.suspends");
    return live;
}

void
FlexTmThread::osDeliverAlert()
{
    HwContext &c = ctx();
    if (!c.aou.alertPending())
        return;
    const AlertCause cause = c.aou.lastCause();
    c.aou.acknowledge();
    StateAuditor *auditor = m_.memsys().auditor();
    if (auditor)
        auditor->noteSettling(core_, true);
    if (tswTx_.strongAborted) {
        ++g_.siAborts;
        throw TxAbort{AbortCause::EnemyKill};
    }
    const auto tsw =
        static_cast<std::uint32_t>(plainRead(tswAddr_, 4));
    if (tsw == TswAborted)
        throw TxAbort{AbortCause::EnemyKill};
    // A capacity alert is dropped: the watch is torn down across the
    // switch anyway and osRestore re-ALoads an active TSW.  Settling
    // deliberately stays on: the TSW stays marked-but-unwatched until
    // the detach (whose noteTxEnd clears the flag) completes.
    (void)cause;
}

void
FlexTmThread::osRestore(const OsSavedState &in)
{
    HwContext &c = ctx();
    sim_assert(!c.inTx, "osRestore with a transaction active");
    // Re-claim the trap vectors: another thread may have used the
    // core while this one was descheduled.
    c.trap = &tswTx_;
    c.rsig = in.rsig;
    c.wsig = in.wsig;
    c.cst = in.cst;
    if (!tswTx_.ot.empty())
        c.ot = &tswTx_.ot;
    c.inTx = true;
    g_.tswOf[core_] = tswAddr_;
    work(60);  // OS restore path

    // Virtualized AOU: wake up in a handler that checks the TSW and
    // re-ALoads it if still active (Section 5).
    const auto tsw =
        static_cast<std::uint32_t>(plainRead(tswAddr_, 4));
    if (tsw != TswActive)
        throw TxAbort{AbortCause::EnemyKill};
    charge(m_.memsys().aload(core_, tswAddr_, m_.scheduler().now()));
    if (StateAuditor *a = m_.memsys().auditor()) {
        // Re-register with CST tracking off: peers that committed
        // while we were parked cleaned their bits from the *saved*
        // registers' hardware home, not the descriptor we just
        // restored, so one-sided stale bits are legal here.  Seed
        // the conflict history from the restored registers.
        a->noteTxBegin(core_, tid_, tswAddr_, TswActive, false);
        a->noteCstSet(core_, CstKind::Rw, c.cst.rw.raw(),
                      /*symmetric=*/false);
        a->noteCstSet(core_, CstKind::Wr, c.cst.wr.raw(),
                      /*symmetric=*/false);
        a->noteCstSet(core_, CstKind::Ww, c.cst.ww.raw(),
                      /*symmetric=*/false);
    }
    ++m_.stats().counter("os.resumes");
}

void
FlexTmThread::abortCleanup()
{
    // Flash-abort speculative state (idempotent if CAS-Commit already
    // did it) and discard the overflow table, then retire our bits
    // from remote CSTs (after our own conflict hints have stopped).
    FTRACE(Tm, m_.scheduler().now(), "core%u abort tx", core_);
    charge(m_.memsys().abortTx(core_, m_.scheduler().now()));
    const CstSet saved_cst = ctx().cst;
    tswTx_.end();
    selfCleanRemoteCsts(saved_cst);
}

} // namespace flextm
