#include "runtime/tx_thread.hh"

#include "runtime/conflict_manager.hh"
#include "sim/auditor.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/oracle.hh"
#include "sim/trace.hh"

namespace flextm
{

TxThread::HotCounters::HotCounters(StatRegistry &s)
    : txCommits(s.counter("tx.commits")), txAborts(s.counter("tx.aborts")),
      txNestedCommits(s.counter("tx.nested_commits")),
      txNestedAborts(s.counter("tx.nested_aborts")),
      faultSpuriousAlerts(s.counter("fault.spurious_alerts")),
      faultForcedAborts(s.counter("fault.forced_aborts")),
      progressTokenWaits(s.counter("progress.token_waits")),
      progressBeginStalls(s.counter("progress.begin_stalls")),
      cmSelfAborts(s.counter("cm.self_aborts")),
      cmEnemyAborts(s.counter("cm.enemy_aborts")),
      cmBackoffs(s.counter("cm.backoffs")),
      cmIrrevocableStalls(s.counter("cm.irrevocable_stalls"))
{
}

TxThread::TxThread(Machine &m, ThreadId tid, CoreId core)
    : m_(m), tid_(tid), core_(core), ctr_(m.stats()),
      threadCommits_(m.stats().counter(
          "thread." + std::to_string(tid) + ".commits")),
      threadAborts_(m.stats().counter(
          "thread." + std::to_string(tid) + ".aborts")),
      commitLatency_(m.stats().histogram("tx.commit_latency")),
      auditor_(m.memsys().auditor()), rng_(m.deriveSeed(0x1000 + tid))
{
}

TxThread::~TxThread() = default;

void
TxThread::charge(Cycles lat)
{
    Scheduler &s = m_.scheduler();
    s.advance(lat);
    if (m_.deadline() != 0 && s.now() > m_.deadline())
        throw DeadlineExceeded{};
    s.yield();
}

void
TxThread::work(Cycles n)
{
    if (n > 0)
        charge(n);
}

std::uint64_t
TxThread::plainRead(Addr a, unsigned size)
{
    std::uint64_t v = 0;
    MemResult r = m_.memsys().access(core_, AccessType::Load, a, size,
                                     &v, m_.scheduler().now());
    charge(r.latency);
    return v;
}

void
TxThread::plainWrite(Addr a, std::uint64_t v, unsigned size)
{
    MemResult r = m_.memsys().access(core_, AccessType::Store, a, size,
                                     &v, m_.scheduler().now());
    charge(r.latency);
}

CasOutcome
TxThread::casWord(Addr a, std::uint64_t expected, std::uint64_t desired,
                  unsigned size)
{
    CasOutcome o = m_.memsys().cas(core_, a, expected, desired, size,
                                   m_.scheduler().now());
    charge(o.latency);
    return o;
}

CasOutcome
TxThread::atomicCas(Addr a, std::uint64_t expected,
                    std::uint64_t desired, unsigned size)
{
    sim_assert(!inTx_ || paused_,
               "atomicCas inside a transaction (use store instead)");
    return casWord(a, expected, desired, size);
}

std::uint64_t
TxThread::read(Addr a, unsigned size)
{
    // Address generation / compare / branch instructions that
    // surround every data access in real code (IPC = 1).
    m_.scheduler().advance(2);
    if (inTx_ && !paused_) {
        const std::uint64_t v = txRead(a, size);
        if (TxOracle *o = m_.oracle())
            o->recordRead(tid_, a, size, v);
        maybeInjectFaults();
        return v;
    }
    // Plain path.  When an oracle is recording, the observed value
    // and its stamp must be taken atomically with the protocol
    // action - i.e. before the post-access charge, which yields - so
    // the access is issued inline here rather than via plainRead().
    // Paused-region reads are not recorded: they may legally observe
    // the thread's own speculative (TMI) data.
    std::uint64_t v = 0;
    MemResult r = m_.memsys().access(core_, AccessType::Load, a, size,
                                     &v, m_.scheduler().now());
    if (TxOracle *o = m_.oracle(); o && !inTx_)
        o->plainRead(tid_, a, size, v);
    charge(r.latency);
    return v;
}

void
TxThread::write(Addr a, std::uint64_t v, unsigned size)
{
    m_.scheduler().advance(2);
    if (inTx_ && !paused_) {
        if (!nestMarks_.empty()) {
            // Closed nesting: log the pre-write speculative value so
            // abortNested() can roll this level back.
            const std::uint64_t old = txRead(a, size);
            nestUndo_.push_back(UndoEntry{a, size, old});
        }
        txWrite(a, v, size);
        if (TxOracle *o = m_.oracle())
            o->recordWrite(tid_, a, size, v);
        maybeInjectFaults();
        return;
    }
    std::uint64_t tmp = v;
    MemResult r = m_.memsys().access(core_, AccessType::Store, a, size,
                                     &tmp, m_.scheduler().now());
    if (TxOracle *o = m_.oracle(); o && !inTx_)
        o->plainWrite(tid_, a, size, v);
    charge(r.latency);
}

void
TxThread::maybeInjectFaults()
{
    FaultPlan *fp = m_.faultPlan();
    if (!fp || !inTx_ || paused_)
        return;
    if (fp->fire(FaultKind::SpuriousAlert)) {
        ++ctr_.faultSpuriousAlerts;
        FTRACE(Fault, m_.scheduler().now(),
               "thread %u spurious alert", tid_);
        injectSpuriousAlert();
    }
    // An irrevocable transaction models a pinned, unkillable one:
    // enemies may not abort it and the OS will not deschedule it, so
    // the enemy-abort and context-switch faults do not apply (they
    // would void the very guarantee the fallback provides).
    const bool pinned = m_.progress().isIrrevocable(tid_);
    if (!pinned && fp->fire(FaultKind::RemoteAbort)) {
        FTRACE(Fault, m_.scheduler().now(),
               "thread %u injected remote abort", tid_);
        injectRemoteAbort();  // may throw TxAbort
    }
    if (!pinned && ctxSwitchHook_ && fp->fire(FaultKind::CtxSwitch)) {
        FTRACE(Fault, m_.scheduler().now(),
               "thread %u forced context switch", tid_);
        ctxSwitchHook_->ctxSwitchFault(*this);  // may throw TxAbort
    }
}

void
TxThread::injectRemoteAbort()
{
    // Software runtimes recover through their normal abort path; the
    // hardware runtimes override this to go through their status
    // word so the full enemy-abort machinery is exercised.
    ++ctr_.faultForcedAborts;
    throw TxAbort{AbortCause::Fault};
}

void
TxThread::oracleStamp()
{
    if (TxOracle *o = m_.oracle())
        o->stamp(tid_);
}

bool
TxThread::txnNested(const std::function<void()> &body)
{
    if (!inTx_) {
        // Outermost level: flat transaction semantics.
        txn(body);
        return true;
    }
    nestMarks_.push_back(nestUndo_.size());
    try {
        body();
    } catch (const NestedAbort &) {
        // Roll back this level's writes, newest first.
        const std::size_t mark = nestMarks_.back();
        while (nestUndo_.size() > mark) {
            const UndoEntry e = nestUndo_.back();
            nestUndo_.pop_back();
            txWrite(e.addr, e.old, e.size);
            // Compensating writes bypass write(); keep the oracle's
            // log of this transaction in step.
            if (TxOracle *o = m_.oracle())
                o->recordWrite(tid_, e.addr, e.size, e.old);
        }
        nestMarks_.pop_back();
        ++ctr_.txNestedAborts;
        return false;
    } catch (...) {
        // Full abort (TxAbort) or other unwind: the whole
        // transaction is going down; drop this level's bookkeeping.
        nestMarks_.pop_back();
        throw;
    }
    nestMarks_.pop_back();
    ++ctr_.txNestedCommits;
    return true;
}

void
TxThread::abortNested()
{
    sim_assert(inTx_ && !nestMarks_.empty(),
               "abortNested outside a nested transaction");
    throw NestedAbort{};
}

void
TxThread::pauseTx()
{
    sim_assert(inTx_ && !paused_, "pauseTx outside a transaction");
    paused_ = true;
    work(4);  // mode-switch instructions
}

void
TxThread::unpauseTx()
{
    sim_assert(inTx_ && paused_, "unpauseTx without pauseTx");
    paused_ = false;
    work(4);
}

void
TxThread::restartTx()
{
    sim_assert(inTx_, "restartTx outside a transaction");
    throw TxAbort{};
}

Addr
TxThread::alloc(std::size_t bytes, std::size_t align)
{
    // Allocator bookkeeping cost (paper workloads use per-thread
    // pools; a constant small charge approximates the fast path).
    charge(10);
    return m_.memory().allocate(bytes, align);
}

void
TxThread::freeMem(Addr a)
{
    charge(10);
    m_.memory().free(a);
}

void
TxThread::txFree(Addr a)
{
    if (inTx_)
        deferredFrees_.push_back(a);
    else
        freeMem(a);
}

void
TxThread::backoffBeforeRetry()
{
    // Randomized exponential back-off, capped; matches the Polka
    // back-off flavour used across all runtimes (Section 7.2).
    const unsigned cap = m_.config().progress.backoffShiftCap;
    const unsigned shift = attempt_ < cap ? attempt_ : cap;
    const Cycles base = 32;
    const Cycles window = base << shift;
    work(window / 2 + rng_.nextInt(window));
}

void
TxThread::requestIrrevocable()
{
    sim_assert(!inTx_, "requestIrrevocable inside a transaction");
    escalateNext_ = true;
}

bool
TxThread::irrevocable() const
{
    return m_.progress().isIrrevocable(tid_);
}

void
TxThread::awaitTxnSlot()
{
    ProgressManager &pm = m_.progress();
    if (escalateNext_ || pm.shouldEscalate(tid_)) {
        // Escalated: claim the token, waiting out a current holder.
        // (Idempotent when we already hold it across a retry.)
        while (!pm.tryAcquireToken(tid_, core_)) {
            ++ctr_.progressTokenWaits;
            work(64 + rng_.nextInt(128u));
        }
        escalateNext_ = false;
        return;
    }
    // Someone else is irrevocable: the fallback degrades the machine
    // to serial execution - stall until the holder drains.
    while (pm.tokenHeldByOther(tid_)) {
        ++ctr_.progressBeginStalls;
        work(64 + rng_.nextInt(128u));
    }
}

void
TxThread::txn(const std::function<void()> &body)
{
    sim_assert(!inTx_, "nested txn() (use subsumption inside body)");
    attempt_ = 0;
    const Cycles txnStart = m_.scheduler().now();
    ProgressManager &pm = m_.progress();
    for (;;) {
        // Forward-progress gate: claim the irrevocability token when
        // escalated, or stall while another thread holds it.
        awaitTxnSlot();
        bool committed = false;
        AbortCause cause = AbortCause::Unknown;
        TxOracle *oracle = m_.oracle();
        try {
            if (oracle)
                oracle->beginTxn(tid_);
            pm.txnBegan(tid_, core_, m_.scheduler().now());
            // Progressiveness (I9) bookkeeping opens with the
            // attempt: conflicts recorded from here justify kills.
            if (auditor_)
                auditor_->noteCmTxnStart(core_);
            beginTx();
            inTx_ = true;
            body();
            sim_assert(!paused_,
                       "transaction body returned while paused");
            committed = commitTx();
        } catch (const TxAbort &ab) {
            committed = false;
            cause = ab.cause;
            paused_ = false;
            nestUndo_.clear();
            nestMarks_.clear();
        }
        if (committed) {
            if (oracle)
                oracle->commitTxn(tid_);
            pm.txnCommitted(tid_, m_.scheduler().now());
            inTx_ = false;
            nestUndo_.clear();
            nestMarks_.clear();
            for (Addr a : deferredFrees_)
                freeMem(a);
            deferredFrees_.clear();
            ++commits_;
            ++ctr_.txCommits;
            ++threadCommits_;
            commitLatency_.add(m_.scheduler().now() - txnStart);
            if (auditor_)
                auditor_->checkpoint(AuditScope::TxnBoundary,
                                     m_.scheduler().now(), "tx_commit");
            return;
        }
        if (oracle)
            oracle->abortTxn(tid_);
        pm.txnAborted(tid_);
        inTx_ = false;
        // Nodes unlinked by the failed attempt stay reachable in the
        // restored state; leaking them is the only safe choice.
        deferredFrees_.clear();
        ++aborts_;
        ++ctr_.txAborts;
        ++threadAborts_;
        Counter *&byCause = abortsByCause_[static_cast<unsigned>(cause)];
        if (!byCause)
            byCause = &m_.stats().counter(
                std::string("aborts.byCause.") + abortCauseName(cause));
        ++*byCause;
        m_.cmPolicy().onAborted(*this);
        abortCleanup();
        if (auditor_)
            auditor_->checkpoint(AuditScope::TxnBoundary,
                                 m_.scheduler().now(), "tx_abort");
        ++attempt_;
        if (onAbortYield_)
            onAbortYield_->runAfterAbort(*this);
        backoffBeforeRetry();
    }
}

TxThread::TswTx::TswTx(TxThread &self, Addr tsw,
                       std::vector<Addr> &tsw_of,
                       std::vector<std::uint64_t> &karma)
    : ot(self.m_.config().signatureBits),
      self_(self), tsw_(tsw), tswOf_(tsw_of), karma_(karma)
{
}

TxThread::TswTx::~TswTx()
{
    HwContext &c = self_.ctx();
    if (c.ot == &ot)
        c.ot = nullptr;
    if (c.trap == this)
        c.trap = nullptr;
}

void
TxThread::TswTx::begin(ConflictMode mode, bool tracks_csts)
{
    // Set up per-transaction metadata (Section 3.5): status word
    // active, ALoaded for abort notification; clean signatures and
    // CSTs; no OT until the first spill traps.
    Machine &m = self_.m_;
    const CoreId core = self_.core_;
    self_.plainWrite(tsw_, TswActive, 4);
    self_.charge(m.memsys().aload(core, tsw_, m.scheduler().now()));
    strongAborted = false;
    ot.clear();
    self_.ctx().beginTx(mode, *this);
    tswOf_[core] = tsw_;
    // Starvation escalation: consecutive aborts carry over as bonus
    // karma, so a repeatedly-victimized transaction wins Polka
    // arbitration on its retries.
    karma_[core] = m.progress().bonusKarma(self_.tid_);
    if (StateAuditor *a = m.memsys().auditor())
        a->noteTxBegin(core, self_.tid_, tsw_, TswActive, tracks_csts);
}

void
TxThread::TswTx::end()
{
    const CoreId core = self_.core_;
    self_.m_.memsys().arelease(core, tsw_);
    self_.ctx().endTx();
    tswOf_[core] = 0;
    karma_[core] = 0;
    strongAborted = false;
    if (StateAuditor *a = self_.m_.memsys().auditor())
        a->noteTxEnd(core);
}

void
TxThread::TswTx::spuriousAlert()
{
    self_.ctx().aou.raise(AlertCause::Capacity, tsw_);
    self_.pollAbort();
}

void
TxThread::TswTx::remoteAbort()
{
    ++self_.ctr_.faultForcedAborts;
    self_.casWord(tsw_, TswActive, TswAborted, 4);
    self_.ctx().aou.raise(AlertCause::RemoteUpdate, tsw_);
    self_.pollAbort();  // observes the aborted TSW and throws
}

void
TxThread::TswTx::strongAbort(CoreId)
{
    strongAborted = true;
    self_.ctx().aou.raise(AlertCause::RemoteUpdate, tsw_);
}

void
TxThread::TswTx::otAllocTrap()
{
    self_.ctx().ot = &ot;
}

const char *
runtimeKindName(RuntimeKind k)
{
    switch (k) {
      case RuntimeKind::FlexTmEager:
        return "FlexTM-Eager";
      case RuntimeKind::FlexTmLazy:
        return "FlexTM-Lazy";
      case RuntimeKind::Cgl:
        return "CGL";
      case RuntimeKind::Rstm:
        return "RSTM";
      case RuntimeKind::Tl2:
        return "TL2";
      case RuntimeKind::RtmF:
        return "RTM-F";
      case RuntimeKind::HyTm:
        return "HyTM";
    }
    return "?";
}

} // namespace flextm
