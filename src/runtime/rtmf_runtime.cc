#include "runtime/rtmf_runtime.hh"

#include "sim/logging.hh"

namespace flextm
{

RtmfThread::RtmfThread(Machine &m, ObjectStmGlobals &g, ThreadId tid,
                       CoreId core)
    : ObjectStmThread(m, g, tid, core),
      tswTx_(*this, tswAddr_, g.tswOf, g.karma)
{
}

void
RtmfThread::beginTx()
{
    readHeaders_.clear();
    acquired_.clear();
    openedLines_.clear();
    // Headers are acquired eagerly; RTM-F has no CSTs, so duality
    // checks do not apply.
    tswTx_.begin(ConflictMode::Eager, /*tracks_csts=*/false);
    work(25);  // register checkpoint
}

void
RtmfThread::checkAlert()
{
    HwContext &c = ctx();
    if (!c.aou.alertPending())
        return;
    const Addr alert_addr = c.aou.lastAddr();
    const AlertCause cause = c.aou.lastCause();
    c.aou.acknowledge();
    // Between this acknowledge and the re-ALoads below, watched
    // header lines are legitimately uncached with no pending alert;
    // suppress the auditor's AOU-liveness check for the window.  (On
    // the throwing paths the flag is cleared by noteTxEnd.)
    StateAuditor *auditor = m_.memsys().auditor();
    if (auditor)
        auditor->noteSettling(core_, true);

    if (tswTx_.strongAborted)
        throw TxAbort{AbortCause::EnemyKill};

    const auto tsw =
        static_cast<std::uint32_t>(plainRead(tswAddr_, 4));
    if (tsw == TswAborted)
        throw TxAbort{AbortCause::EnemyKill};

    if (lineAlign(alert_addr) == lineAlign(tswAddr_) &&
        cause == AlertCause::Capacity) {
        // The TSW's alert bit was lost to an eviction; re-establish
        // it.  Do NOT return early: alerts coalesce in hardware (one
        // pending bit, last address wins), so a header alert may be
        // hiding behind this one - fall through to the conservative
        // re-validation below or a doomed read would commit.
        charge(m_.memsys().aload(core_, tswAddr_,
                                 m_.scheduler().now()));
    }

    // A monitored object header may have changed: a writer acquired
    // an object we read.  Alerts coalesce, so conservatively
    // re-validate every watched header: wait out or
    // abort live owners, then compare against the observed word - a
    // committed writer leaves a bumped version behind and we must
    // self-abort; an aborted one restores the old word and we live.
    ++m_.stats().counter("rtmf.read_conflicts");
    revalidateReadHeaders();
    if (auditor)
        auditor->noteSettling(core_, false);
}

void
RtmfThread::revalidateReadHeaders()
{
    // Ascending header order, as the former std::map iterated.
    readHeaders_.forEachSorted([this](Addr header,
                                      const std::uint64_t &word) {
        std::uint64_t cur = plainRead(header, 8);
        while (isLocked(cur) && lockOwner(cur) != core_) {
            resolveOwner(header);
            cur = plainRead(header, 8);
        }
        if (isLocked(cur) && lockOwner(cur) == core_) {
            auto it = acquired_.find(header);
            if (it == acquired_.end() || it->second != word)
                throw TxAbort{AbortCause::Validation};
        } else if (cur != word) {
            throw TxAbort{AbortCause::Validation};
        }
        // Re-establish the AOU watch lost to the invalidation.
        charge(m_.memsys().aload(core_, header, m_.scheduler().now()));
    });
}

void
RtmfThread::openForRead(Addr a)
{
    const Addr header = g_.headerFor(a);
    if (readHeaders_.count(header) || acquired_.count(header))
        return;
    // AOU watch on the header: a remote acquisition alerts us - this
    // replaces per-access validation entirely.  The watch must go
    // live BEFORE the header word is sampled: reading first leaves a
    // window (the read's charge yields) where a writer can acquire
    // unobserved - the recorded word would be the stale pre-lock
    // value and the only remaining alert, the writer's release, can
    // land after this reader has already drained alerts and
    // CAS-committed a doomed read.
    std::uint64_t h;
    try {
        for (;;) {
            charge(m_.memsys().aload(core_, header,
                                     m_.scheduler().now()));
            h = plainRead(header, 8);
            if (!isLocked(h) || lockOwner(h) == core_)
                break;
            // The sampled word is discarded (the loop re-ALoads and
            // re-samples after resolution), so don't hold the watch
            // through conflict resolution: its alert handler could
            // consume this header's own alert and re-arm only
            // readHeaders_ entries, leaving a dark mark - and an
            // abort thrown by resolution would leak it outright.
            m_.memsys().arelease(core_, header);
            resolveOwner(header);
        }
    } catch (...) {
        // The watch went live before the throw, but the header is
        // not in readHeaders_ yet, so abortCleanup's releaseAll
        // would never retire it: the orphaned mark survives into the
        // next transaction and decays into a spurious - or, once the
        // cached copy is invalidated, an undeliverable - alert.
        m_.memsys().arelease(core_, header);
        throw;
    }
    readHeaders_.emplace(header, h);
    ++g_.karma[core_];
}

void
RtmfThread::openForWrite(Addr a)
{
    const Addr header = g_.headerFor(a);
    if (acquired_.count(header))
        return;
    std::uint64_t old;
    for (;;) {
        old = plainRead(header, 8);
        if (isLocked(old)) {
            if (lockOwner(old) == core_)
                return;
            resolveOwner(header);
            continue;
        }
        if (casWord(header, old, lockedWord(), 8).success)
            break;
    }
    acquired_.emplace(header, old);
    ++g_.karma[core_];
}

std::uint64_t
RtmfThread::txRead(Addr a, unsigned size)
{
    const Addr line = lineAlign(a);
    if (!openedLines_.count(line)) {
        checkAlert();
        openForRead(a);
        openedLines_.insert(line);
    }
    std::uint64_t v = 0;
    MemResult r = m_.memsys().access(core_, AccessType::TLoad, a, size,
                                     &v, m_.scheduler().now());
    charge(r.latency);
    checkAlert();
    return v;
}

void
RtmfThread::txWrite(Addr a, std::uint64_t v, unsigned size)
{
    checkAlert();
    openForWrite(a);
    MemResult r = m_.memsys().access(core_, AccessType::TStore, a, size,
                                     &v, m_.scheduler().now());
    charge(r.latency);
    checkAlert();
}

void
RtmfThread::releaseAll(bool committed)
{
    acquired_.forEachSorted([&](Addr header, const std::uint64_t &old) {
        plainWrite(header, committed ? old + 2 : old, 8);
    });
    acquired_.clear();
    readHeaders_.forEachSorted([this](Addr header, const std::uint64_t &) {
        m_.memsys().arelease(core_, header);
    });
    readHeaders_.clear();
    openedLines_.clear();
}

bool
RtmfThread::commitTx()
{
    // Drain every pending alert before deciding to commit: a
    // coalesced header alert left pending here would mean committing
    // without re-validating the read set.
    checkAlert();
    while (ctx().aou.alertPending())
        checkAlert();
    // PDI flash commit via CAS-Commit, without the CST check (RTM-F
    // has no CSTs).
    // From the CAS-Commit on, flash commit/abort drops TI header
    // lines without alerts while their watches are still marked.
    if (StateAuditor *a = m_.memsys().auditor())
        a->noteSettling(core_, true);
    CommitResult cr = m_.memsys().casCommit(core_, tswAddr_, TswActive,
                                            TswCommitted,
                                            m_.scheduler().now(),
                                            /*check_csts=*/false);
    if (cr.outcome == CommitOutcome::Committed)
        oracleStamp();  // serialization point, before charge() yields
    charge(cr.latency);
    if (cr.outcome != CommitOutcome::Committed)
        throw TxAbort{AbortCause::EnemyKill};

    releaseAll(true);
    tswTx_.end();
    return true;
}

void
RtmfThread::abortCleanup()
{
    // The flash abort below drops TI header lines without alerts
    // while their watches are still marked; releaseAll() then
    // retires the marks one plain write at a time.
    if (StateAuditor *a = m_.memsys().auditor())
        a->noteSettling(core_, true);
    charge(m_.memsys().abortTx(core_, m_.scheduler().now()));
    releaseAll(false);
    tswTx_.end();
}

} // namespace flextm
