#include "os/tx_os.hh"

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace flextm
{

TxOs::TxOs(Machine &m, FlexTmGlobals &globals)
    : m_(m), g_(globals),
      rssig_(m.config().signatureBits), wssig_(m.config().signatureBits)
{
    m_.memsys().setOs(this);
    g_.os = this;
}

TxOs::~TxOs()
{
    m_.memsys().setOs(nullptr);
    g_.os = nullptr;
}

void
TxOs::recomputeSummaries()
{
    // The OS re-calculates the summary signatures for the currently
    // swapped-out transactions and re-installs them at the directory
    // (Section 5).
    rssig_.clear();
    wssig_.clear();
    coresSummary_ = 0;
    for (const auto &s : suspended_) {
        rssig_.unionWith(s.saved.rsig);
        wssig_.unionWith(s.saved.wsig);
        coresSummary_ |= std::uint64_t{1} << s.core;
    }
}

void
TxOs::suspend(FlexTmThread &t)
{
    sim_assert(!isSuspended(t), "double suspend");
    // Deliver-or-abort: a pending alert must be taken before the
    // transaction parks.  The suspend path tears the AOU watch down
    // and resume only consults the (virtualized) TSW - which a
    // strong-isolation abort never writes - so an alert parked here
    // would be silently discarded and the transaction would resume
    // unserializably.
    t.osDeliverAlert();  // may throw TxAbort
    Suspended s;
    s.thread = &t;
    s.core = t.core();
    if (StateAuditor *a = m_.memsys().auditor())
        a->noteSuspend(t.core());
    // Snapshot and install the summary signatures FIRST: while the
    // hardware state is being spilled/cleared (which takes time),
    // conflicting remote accesses must already be caught at the
    // directory, or a doomed transaction could slip through and
    // commit an inconsistent update.
    t.osSnapshot(s.saved);
    suspended_.push_back(std::move(s));
    recomputeSummaries();
    try {
        // Merge the CST bits the live registers accumulated between
        // the snapshot above and the end of the spill (responders
        // keep setting them while the flush runs) into the saved
        // descriptor.  Look the entry up again: the spill yields, so
        // other threads may have grown suspended_ meanwhile.
        const CstSet live = t.osDetach();
        for (auto &e : suspended_) {
            if (e.thread == &t) {
                e.saved.cst.rw.unionWith(live.rw);
                e.saved.cst.wr.unionWith(live.wr);
                e.saved.cst.ww.unionWith(live.ww);
            }
        }
        // An alert raised during the spill window is equally
        // deliver-or-abort.
        t.osDeliverAlert();
    } catch (...) {
        for (auto it = suspended_.begin(); it != suspended_.end();
             ++it) {
            if (it->thread == &t) {
                suspended_.erase(it);
                break;
            }
        }
        recomputeSummaries();
        throw;
    }
    if (StateAuditor *a = m_.memsys().auditor())
        a->checkpoint(AuditScope::Switch, m_.scheduler().now(),
                      "os_suspend");
    FTRACE(Os, m_.scheduler().now(), "suspend tx on core%u (%zu now "
           "suspended)", t.core(), suspended_.size());
}

bool
TxOs::isSuspended(const FlexTmThread &t) const
{
    for (const auto &s : suspended_)
        if (s.thread == &t)
            return true;
    return false;
}

void
TxOs::resume(FlexTmThread &t)
{
    for (auto it = suspended_.begin(); it != suspended_.end(); ++it) {
        if (it->thread != &t)
            continue;
        const FlexTmThread::OsSavedState saved = std::move(it->saved);
        suspended_.erase(it);
        recomputeSummaries();
        if (StateAuditor *a = m_.memsys().auditor())
            a->noteResume(t.core());
        t.osRestore(saved);  // may throw TxAbort
        if (StateAuditor *a = m_.memsys().auditor())
            a->checkpoint(AuditScope::Switch, m_.scheduler().now(),
                          "os_resume");
        return;
    }
    panic("resume of a thread that is not suspended");
}

void
TxOs::resumeMigrated(FlexTmThread &t)
{
    for (auto it = suspended_.begin(); it != suspended_.end(); ++it) {
        if (it->thread != &t)
            continue;
        suspended_.erase(it);
        recomputeSummaries();
        ++m_.stats().counter("os.migration_aborts");
        // Abort-and-restart: lazy versioning does not move TMI
        // ownership between cores.
        throw TxAbort{AbortCause::Fault};
    }
    panic("migrate of a thread that is not suspended");
}

OsHandler::MissCheck
TxOs::summaryMiss(CoreId requestor, ReqType t, Addr addr, Cycles now)
{
    MissCheck mc;
    if (suspended_.empty())
        return mc;
    // The L2 consults the summary signatures on each L1 miss.
    const bool w_hit = wssig_.mayContain(addr);
    const bool r_hit = t != ReqType::GETS && rssig_.mayContain(addr);
    if (!w_hit && !r_hit)
        return mc;

    // Trap to a software handler on the requesting processor.  It
    // mimics the hardware: test each suspended transaction's saved
    // signatures and update CSTs / manage conflicts per mode.
    Cycles cost = 80;  // trap entry/exit
    ++m_.stats().counter("os.summary_traps");
    FTRACE(Os, now, "summary trap: core%u %s 0x%llx", requestor,
           reqTypeName(t), (unsigned long long)lineAlign(addr));
    HwContext &req_ctx = m_.context(requestor);

    for (auto &s : suspended_) {
        cost += 20;  // descriptor walk + signature tests
        const bool sw = s.saved.wsig.mayContain(addr);
        const bool sr = s.saved.rsig.mayContain(addr);
        if (!sw && !sr)
            continue;
        if (sw) {
            // The line is (conservatively) speculatively written by
            // a descheduled transaction: the access must be handled
            // exactly as a hardware Threatened response would be -
            // uncached for plain loads, TI for TLoads - so no
            // stable copy survives the suspended commit's copy-back.
            mc.threatened = true;
        }

        bool abort_suspended = false;
        switch (t) {
          case ReqType::GETS:
            if (sw) {
                // Reader vs suspended writer.  A transactional
                // reader records the conflict; a plain read just
                // serializes before the transaction via the
                // Threatened/uncached path (mc.threatened above) -
                // reads never abort writers (Section 3.5).
                s.saved.cst.wr.set(requestor);
                if (req_ctx.inTx) {
                    req_ctx.cst.rw.set(s.core);
                    if (StateAuditor *a = m_.memsys().auditor())
                        a->noteCstSet(requestor, CstKind::Rw,
                                      std::uint64_t{1} << s.core,
                                      /*symmetric=*/false);
                }
            }
            break;
          case ReqType::TGETX:
            if (sw) {
                s.saved.cst.ww.set(requestor);
                req_ctx.cst.ww.set(s.core);
                if (StateAuditor *a = m_.memsys().auditor())
                    a->noteCstSet(requestor, CstKind::Ww,
                                  std::uint64_t{1} << s.core,
                                  /*symmetric=*/false);
            } else if (sr) {
                s.saved.cst.rw.set(requestor);
                req_ctx.cst.wr.set(s.core);
                if (StateAuditor *a = m_.memsys().auditor())
                    a->noteCstSet(requestor, CstKind::Wr,
                                  std::uint64_t{1} << s.core,
                                  /*symmetric=*/false);
            }
            if (req_ctx.inTx &&
                req_ctx.mode == ConflictMode::Eager) {
                // Eager conflict management cannot stall on a
                // suspended enemy (convoying); abort it.
                abort_suspended = true;
            }
            break;
          case ReqType::GETX:
            abort_suspended = true;  // strong isolation
            break;
        }

        if (abort_suspended) {
            // Virtualized AOU: write the suspended transaction's
            // status word; it notices at resume.
            std::uint32_t cur = 0;
            m_.memsys().peek(s.thread->tswAddr(), &cur, 4);
            if (cur == TswActive) {
                // The handler performs a real CAS through the
                // protocol and charges its latency to the trap.
                CasOutcome o = m_.memsys().cas(
                    requestor, s.thread->tswAddr(), TswActive,
                    TswAborted, 4, now);
                cost += o.latency;
                if (o.success)
                    ++m_.stats().counter("os.suspended_aborts");
            }
        }
    }
    mc.latency = cost;
    return mc;
}

bool
TxOs::sticky(CoreId core, Addr addr) const
{
    if (!(coresSummary_ & (std::uint64_t{1} << core)))
        return false;
    return rssig_.mayContain(addr) || wssig_.mayContain(addr);
}

void
TxOs::abortSuspendedOn(TxThread &self, CoreId core)
{
    for (auto &s : suspended_) {
        if (s.core != core)
            continue;
        std::uint32_t cur = 0;
        m_.memsys().peek(s.thread->tswAddr(), &cur, 4);
        if (cur == TswActive) {
            CasOutcome o =
                m_.memsys().cas(self.core(), s.thread->tswAddr(),
                                TswActive, TswAborted, 4,
                                m_.scheduler().now());
            self.work(o.latency);
            if (o.success)
                ++m_.stats().counter("os.suspended_aborts");
        }
    }
}

void
TxOs::installFaultHook(FlexTmThread &t, FaultPlan &plan)
{
    plan_ = &plan;
    t.setCtxSwitchFaultHook(this);
}

void
TxOs::ctxSwitchFault(TxThread &bt)
{
    auto &ft = static_cast<FlexTmThread &>(bt);
    if (isSuspended(ft))
        return;
    ++m_.stats().counter("fault.ctx_switches");
    FTRACE(Fault, m_.scheduler().now(),
           "forced context switch of core%u mid-tx", ft.core());
    suspend(ft);
    // The thread runs non-transactionally for a while (a "quantum"
    // of other work), during which running peers hit the summary
    // signatures.
    ft.work(200 + plan_->rng().nextInt(800u));
    resume(ft);  // may throw TxAbort
}

void
TxOs::remapPage(Addr old_base, Addr new_base, std::size_t bytes)
{
    sim_assert((old_base & lineMask) == 0 &&
               (new_base & lineMask) == 0);
    // For each thread that mapped the page: test Rsig/Wsig/Osig for
    // each block's old address and add the new address; retag OT
    // entries (Section 4.1).
    for (unsigned c = 0; c < m_.cores(); ++c) {
        HwContext &ctx = m_.context(c);
        for (Addr off = 0; off < bytes; off += lineBytes) {
            const Addr oa = old_base + off;
            const Addr na = new_base + off;
            if (ctx.rsig.mayContain(oa))
                ctx.rsig.insert(na);
            if (ctx.wsig.mayContain(oa))
                ctx.wsig.insert(na);
            if (ctx.ot && ctx.ot->mayContain(oa))
                ctx.ot->retag(oa, na);
        }
    }
    for (auto &s : suspended_) {
        OverflowTable &ot = s.thread->overflowTableForOs();
        for (Addr off = 0; off < bytes; off += lineBytes) {
            const Addr oa = old_base + off;
            const Addr na = new_base + off;
            if (s.saved.rsig.mayContain(oa))
                s.saved.rsig.insert(na);
            if (s.saved.wsig.mayContain(oa))
                s.saved.wsig.insert(na);
            if (ot.mayContain(oa))
                ot.retag(oa, na);
        }
    }
    recomputeSummaries();
    ++m_.stats().counter("os.page_remaps");
}

} // namespace flextm
