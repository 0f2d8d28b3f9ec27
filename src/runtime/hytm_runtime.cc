#include "runtime/hytm_runtime.hh"

#include "mem/memory_system.hh"
#include "runtime/conflict_manager.hh"
#include "sim/auditor.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace flextm
{

void
validateHtmConfig(const MachineConfig &cfg)
{
    if (cfg.htmReadSetLines < 2)
        fatal("hytm: htmReadSetLines must be at least 2 (one data "
              "line plus the fallback-lock subscription)");
    if (cfg.htmWriteSetLines == 0)
        fatal("hytm: htmWriteSetLines must be nonzero");
    if (cfg.htmRetryLimit == 0)
        fatal("hytm: htmRetryLimit must be nonzero");
    if (cfg.htmWriteSetLines > cfg.l1Ways + cfg.victimEntries)
        fatal("hytm: htmWriteSetLines (%u) exceeds what the L1 can "
              "retain (%u ways + %u victim entries)",
              cfg.htmWriteSetLines, cfg.l1Ways, cfg.victimEntries);
}

namespace
{

Machine &
validated(Machine &m)
{
    validateHtmConfig(m.config());
    return m;
}

} // anonymous namespace

HyTmGlobals::HyTmGlobals(Machine &m)
    : tl2(validated(m)),
      gateAddr(m.memory().allocate(lineBytes, lineBytes)),
      htmCommits(m.stats().counter("hytm.htm_commits")),
      slowCommits(m.stats().counter("hytm.slow_commits")),
      capacityAborts(m.stats().counter("hytm.capacity_aborts")),
      conflictAborts(m.stats().counter("hytm.conflict_aborts")),
      gateAborts(m.stats().counter("hytm.gate_aborts")),
      spuriousAborts(m.stats().counter("hytm.spurious_aborts")),
      overflowTraps(m.stats().counter("hytm.overflow_traps"))
{
}

HyTmThread::HyTmThread(Machine &m, HyTmGlobals &g, ThreadId tid,
                       CoreId core)
    : Tl2Thread(m, g.tl2, tid, core), hg_(g),
      emergencyOt_(m.config().signatureBits)
{
    // The TSW occupies its own cache line so CAS-Commit never aliases
    // with data.
    tswAddr_ = m_.memory().allocate(lineBytes, lineBytes);
    readSet_.reserve(m.config().htmReadSetLines);
    writeSet_.reserve(m.config().htmWriteSetLines);
    setCtxSwitchFaultHook(this);
}

HyTmThread::~HyTmThread()
{
    HwContext &c = ctx();
    if (c.ot == &emergencyOt_)
        c.ot = nullptr;
    if (c.trap == this)
        c.trap = nullptr;
}

void
HyTmThread::strongAbort(CoreId)
{
    // No AOU here: a bounded HTM has no alert hardware, so the flag
    // is polled at the next access/commit (sound - the only yields
    // between protocol actions are ours).
    strongAborted_ = true;
}

void
HyTmThread::otAllocTrap()
{
    // No OT virtualization either, but the protocol engine needs a
    // destination when fault injection forces a TMI line out of the
    // L1.  Park it in the emergency table and doom the attempt: the
    // values are discarded on the capacity abort, never committed.
    ctx().ot = &emergencyOt_;
    overflowed_ = true;
    ++hg_.overflowTraps;
    if (StateAuditor *a = m_.memsys().auditor())
        a->noteHtmOverflow(core_);
}

void
HyTmThread::ctxSwitchFault(TxThread &)
{
    // A context switch during a hardware attempt is a spurious
    // abort.  The software slow path is unaffected.
    if (slowMode_)
        return;
    ++hg_.spuriousAborts;
    throw TxAbort{AbortCause::Fault};
}

void
HyTmThread::beginTx()
{
    HwContext &c = ctx();
    sim_assert(!c.inTx, "beginTx with transaction already active");

    // Mode selection: fall back after htmRetryLimit hardware aborts;
    // irrevocable transactions go straight to software (a best-effort
    // attempt can always abort spuriously, which an irrevocable
    // transaction must never do).
    slowMode_ = attempt_ >= m_.config().htmRetryLimit ||
                m_.progress().isIrrevocable(tid_);
    if (slowMode_) {
        gateAcquire();
        Tl2Thread::beginTx();
        return;
    }

    // Wait out active slow-path transactions before starting (a
    // plain coherent read: the spinner caches the gate line until a
    // gate update invalidates it).
    while (plainRead(hg_.gateAddr, 8) != 0)
        work(64);

    plainWrite(tswAddr_, TswActive, 4);
    strongAborted_ = false;
    overflowed_ = false;
    readSet_.clear();
    writeSet_.clear();
    emergencyOt_.clear();
    // Lazy responses: conflicts are recorded at the responder and
    // reported to the requestor, who self-aborts (postAccessCheck) -
    // the surviving side never needs commit-time kills.
    c.beginTx(ConflictMode::Lazy, *this);

    if (StateAuditor *a = m_.memsys().auditor()) {
        // tracks_csts=false: the CST registers fill with responder
        // bits as usual, but nobody consumes or self-cleans them, so
        // duality (I5) decays legitimately.  I8 takes over instead.
        a->noteTxBegin(core_, tid_, tswAddr_, TswActive,
                       /*tracks_csts=*/false);
        a->noteHtmBounded(core_, m_.config().htmReadSetLines,
                          m_.config().htmWriteSetLines);
    }

    // Fallback-lock subscription: a transactional load of the gate
    // plants its line in the Rsig, so a slow-path begin (a plain CAS
    // on the gate) strong-aborts every hardware transaction in
    // flight.  Issued directly at the protocol layer - it is part of
    // the begin sequence, not a program access the oracle should log.
    // The line occupies a hardware-reserved read-set slot (which is
    // why validateHtmConfig demands room for it).
    std::uint64_t gate = 0;
    MemResult r =
        m_.memsys().access(core_, AccessType::TLoad, hg_.gateAddr, 8,
                           &gate, m_.scheduler().now());
    readSet_.insert(lineAlign(hg_.gateAddr));
    charge(r.latency);
    if (gate != 0) {
        // A slow-path transaction slipped in between the spin and the
        // subscription; its plain write-backs would be invisible now.
        ++hg_.gateAborts;
        throw TxAbort{AbortCause::EnemyKill};
    }

    // Register checkpoint (no descriptor, no AOU arm: begin is what
    // the bounded design makes cheap).
    work(10);
    FTRACE(Tm, m_.scheduler().now(), "core%u begin htm tx", core_);
}

void
HyTmThread::postAccessCheck(const MemResult &r)
{
    if (overflowed_) {
        ++hg_.capacityAborts;
        throw TxAbort{AbortCause::Capacity};
    }
    if (strongAborted_) {
        ++hg_.conflictAborts;
        throw TxAbort{AbortCause::EnemyKill};
    }
    if (r.threatenedBy | r.exposedReadBy) {
        // Requester-self-abort conflict policy: die before issuing
        // any further protocol action, so a surviving peer's stale
        // CST bits only ever name dead transactions.  The policy
        // decides whether the retry escalates (it always throws).
        ++hg_.conflictAborts;
        m_.cmPolicy().htmConflict(*this);
    }
}

std::uint64_t
HyTmThread::txRead(Addr a, unsigned size)
{
    if (slowMode_)
        return Tl2Thread::txRead(a, size);
    const Addr line = lineAlign(a);
    if (!readSet_.contains(line) &&
        readSet_.size() >= m_.config().htmReadSetLines) {
        ++hg_.capacityAborts;
        throw TxAbort{AbortCause::Capacity};
    }
    std::uint64_t v = 0;
    MemResult r = m_.memsys().access(core_, AccessType::TLoad, a, size,
                                     &v, m_.scheduler().now());
    readSet_.insert(line);
    charge(r.latency);
    postAccessCheck(r);
    return v;
}

void
HyTmThread::txWrite(Addr a, std::uint64_t v, unsigned size)
{
    if (slowMode_)
        return Tl2Thread::txWrite(a, v, size);
    const Addr line = lineAlign(a);
    if (!writeSet_.contains(line) &&
        writeSet_.size() >= m_.config().htmWriteSetLines) {
        ++hg_.capacityAborts;
        throw TxAbort{AbortCause::Capacity};
    }
    MemResult r = m_.memsys().access(core_, AccessType::TStore, a, size,
                                     &v, m_.scheduler().now());
    writeSet_.insert(line);
    charge(r.latency);
    postAccessCheck(r);
}

bool
HyTmThread::commitTx()
{
    if (slowMode_) {
        const bool ok = Tl2Thread::commitTx();
        gateRelease();
        ++hg_.slowCommits;
        return ok;
    }

    // Host-side doom checks: no yield separates them from the
    // CAS-Commit below, so nothing can invalidate them in between.
    if (overflowed_) {
        ++hg_.capacityAborts;
        throw TxAbort{AbortCause::Capacity};
    }
    if (strongAborted_) {
        ++hg_.conflictAborts;
        throw TxAbort{AbortCause::EnemyKill};
    }

    // check_csts=false: under requester-self-abort the accumulated
    // CST bits only name transactions that already died, so the
    // hardware commit-time conflict check is vacuous by construction.
    CommitResult cr = m_.memsys().casCommit(
        core_, tswAddr_, TswActive, TswCommitted, m_.scheduler().now(),
        /*check_csts=*/false);
    // The successful CAS-Commit is the serialization point; the stamp
    // must be taken before the latency charge yields.
    if (cr.outcome == CommitOutcome::Committed)
        oracleStamp();
    charge(cr.latency);
    if (cr.outcome != CommitOutcome::Committed) {
        // Defensive: no HyTM peer ever CASes our TSW, but a harness
        // driving the machine directly could.
        ++hg_.conflictAborts;
        throw TxAbort{AbortCause::EnemyKill};
    }
    resetHwTxState();
    ++hg_.htmCommits;
    return true;
}

void
HyTmThread::abortCleanup()
{
    if (slowMode_) {
        Tl2Thread::abortCleanup();
        if (gateHeld_)
            gateRelease();
        return;
    }
    FTRACE(Tm, m_.scheduler().now(), "core%u abort htm tx", core_);
    // Flash-abort speculative state and discard the emergency table's
    // contents (idempotent if nothing is speculative).
    charge(m_.memsys().abortTx(core_, m_.scheduler().now()));
    resetHwTxState();
}

void
HyTmThread::injectSpuriousAlert()
{
    // A bounded HTM has no alert-and-recover path: any spurious
    // hardware hiccup is an abort.  The software slow path shrugs it
    // off.
    if (slowMode_)
        return;
    ++hg_.spuriousAborts;
    throw TxAbort{AbortCause::Fault};
}

void
HyTmThread::resetHwTxState()
{
    ctx().endTx();
    strongAborted_ = false;
    overflowed_ = false;
    readSet_.clear();
    writeSet_.clear();
    emergencyOt_.clear();
    if (StateAuditor *a = m_.memsys().auditor())
        a->noteTxEnd(core_);
}

void
HyTmThread::gateAcquire()
{
    // Increment the active-slow-transaction count.  The CAS is a
    // plain GETX on the gate line: every subscribed hardware
    // transaction strong-aborts right here.
    for (;;) {
        const std::uint64_t g = plainRead(hg_.gateAddr, 8);
        if (casWord(hg_.gateAddr, g, g + 1, 8).success)
            break;
    }
    gateHeld_ = true;
}

void
HyTmThread::gateRelease()
{
    for (;;) {
        const std::uint64_t g = plainRead(hg_.gateAddr, 8);
        sim_assert(g != 0, "fallback gate released below zero");
        if (casWord(hg_.gateAddr, g, g - 1, 8).success)
            break;
    }
    gateHeld_ = false;
}

} // namespace flextm
