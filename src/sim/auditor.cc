#include "sim/auditor.hh"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "mem/memory_system.hh"
#include "sim/env_util.hh"
#include "sim/logging.hh"
#include "sim/oracle.hh"
#include "sim/progress.hh"

namespace flextm
{

namespace
{

std::uint64_t
bit(CoreId k)
{
    return std::uint64_t{1} << k;
}

template <typename Fn>
void
forEachBit(std::uint64_t mask, Fn fn)
{
    while (mask) {
        const unsigned k = std::countr_zero(mask);
        fn(static_cast<CoreId>(k));
        mask &= mask - 1;
    }
}

std::string
toHex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << v;
    return os.str();
}

} // anonymous namespace

AuditLevel
envAuditLevel(AuditLevel fallback)
{
    switch (env::choiceOr("FLEXTM_AUDITOR", {"off", "txn", "transition"})) {
      case 0:
        return AuditLevel::Off;
      case 1:
        return AuditLevel::TxnBoundary;
      case 2:
        return AuditLevel::Transition;
      default:
        return fallback;
    }
}

StateAuditor::StateAuditor(const MachineConfig &cfg, MemorySystem &ms)
    : cfg_(cfg), ms_(ms), level_(cfg.auditor), cores_(cfg.cores)
{
}

void
StateAuditor::noteTxBegin(CoreId core, ThreadId tid, Addr tsw,
                          std::uint32_t tsw_active, bool tracks_csts)
{
    PerCore &pc = cores_[core];
    pc.registered = true;
    pc.tracksCsts = tracks_csts;
    pc.settling = 0;
    pc.virtualized = false;
    pc.tid = tid;
    pc.tswAddr = tsw;
    pc.tswActive = tsw_active;
    pc.rwHist = pc.wrHist = pc.wwHist = 0;
    pc.oneSidedRw = pc.oneSidedWr = pc.oneSidedWw = 0;
    pc.htmBounded = false;
    pc.htmOverflowAnnounced = false;
    pc.htmReadBound = pc.htmWriteBound = 0;
    pc.readLines.clear();
    pc.writeLines.clear();
    // Peer bits naming this core now point at a dead (or parked)
    // transaction: legal leftovers, no longer duality-checkable until
    // a fresh symmetric conflict re-arms the pair.
    markPeersOneSided(core);
    noteEvent(0, "tx_begin", core, tsw, tid);
}

void
StateAuditor::noteTxEnd(CoreId core)
{
    PerCore &pc = cores_[core];
    pc.registered = false;
    pc.settling = 0;
    pc.virtualized = false;
    pc.htmBounded = false;
    pc.htmOverflowAnnounced = false;
    pc.readLines.clear();
    pc.writeLines.clear();
    markPeersOneSided(core);
    noteEvent(0, "tx_end", core, pc.tswAddr, pc.tid);
}

void
StateAuditor::markPeersOneSided(CoreId core)
{
    const std::uint64_t b = bit(core);
    for (PerCore &pc : cores_) {
        pc.oneSidedRw |= b;
        pc.oneSidedWr |= b;
        pc.oneSidedWw |= b;
    }
}

void
StateAuditor::noteSettling(CoreId core, bool on)
{
    PerCore &pc = cores_[core];
    if (on)
        ++pc.settling;
    else if (pc.settling > 0)
        --pc.settling;
    noteEvent(0, on ? "settle_on" : "settle_off", core, 0, 0);
}

void
StateAuditor::noteSuspend(CoreId core)
{
    cores_[core].virtualized = true;
    markPeersOneSided(core);
    noteEvent(0, "suspend", core, 0, 0);
}

void
StateAuditor::noteResume(CoreId core)
{
    noteEvent(0, "resume", core, 0, 0);
}

void
StateAuditor::noteAccess(CoreId core, bool is_write, Addr line)
{
    PerCore &pc = cores_[core];
    if (!pc.registered)
        return;
    (is_write ? pc.writeLines : pc.readLines).insert(lineAlign(line));
}

void
StateAuditor::noteCstSet(CoreId core, CstKind kind, std::uint64_t mask,
                         bool symmetric)
{
    if (!mask)
        return;
    PerCore &pc = cores_[core];
    switch (kind) {
      case CstKind::Rw:
        pc.rwHist |= mask;
        if (symmetric)
            pc.oneSidedRw &= ~mask;
        else
            pc.oneSidedRw |= mask;
        break;
      case CstKind::Wr:
        pc.wrHist |= mask;
        if (symmetric)
            pc.oneSidedWr &= ~mask;
        else
            pc.oneSidedWr |= mask;
        break;
      case CstKind::Ww:
        pc.wwHist |= mask;
        if (symmetric)
            pc.oneSidedWw &= ~mask;
        else
            pc.oneSidedWw |= mask;
        break;
    }
    noteEvent(0, kind == CstKind::Rw   ? "cst_rw"
                 : kind == CstKind::Wr ? "cst_wr"
                                       : "cst_ww",
              core, 0, mask);
}

void
StateAuditor::noteHtmBounded(CoreId core, unsigned read_lines,
                             unsigned write_lines)
{
    PerCore &pc = cores_[core];
    pc.htmBounded = true;
    pc.htmOverflowAnnounced = false;
    pc.htmReadBound = read_lines;
    pc.htmWriteBound = write_lines;
    noteEvent(0, "htm_bounds", core, 0,
              (std::uint64_t{read_lines} << 32) | write_lines);
}

void
StateAuditor::noteHtmOverflow(CoreId core)
{
    cores_[core].htmOverflowAnnounced = true;
    noteEvent(0, "htm_overflow", core, 0, 0);
}

void
StateAuditor::noteCmTxnStart(CoreId core)
{
    cores_[core].cmConflictHist = 0;
}

void
StateAuditor::noteCmConflict(CoreId core, CoreId enemy)
{
    if (enemy == invalidCore || enemy >= cores_.size())
        return;
    cores_[core].cmConflictHist |= bit(enemy);
    noteEvent(0, "cm_conflict", core, 0, enemy);
}

void
StateAuditor::noteEnemyAbort(Cycles now, CoreId aggressor,
                             CoreId victim)
{
    noteEvent(now, "cm_kill", aggressor, 0, victim);
    if (victim == invalidCore || victim >= cores_.size())
        return;
    if (progress_ && progress_->isIrrevocableCore(victim)) {
        violation(now, "I9 progressiveness", aggressor, 0,
                  "core " + std::to_string(aggressor) +
                      " killed the irrevocability-token holder on "
                      "core " +
                      std::to_string(victim));
        return;
    }
    const PerCore &pc = cores_[aggressor];
    const std::uint64_t justified = pc.cmConflictHist | pc.rwHist |
                                    pc.wrHist | pc.wwHist;
    if (!(justified & bit(victim)))
        violation(now, "I9 progressiveness", aggressor, 0,
                  "core " + std::to_string(aggressor) +
                      " aborted core " + std::to_string(victim) +
                      " without any recorded conflict (justified "
                      "mask 0x" +
                      toHex(justified) + ")");
}

void
StateAuditor::noteEvent(Cycles now, const char *what, CoreId core,
                        Addr addr, std::uint64_t aux)
{
    Event &e = ring_[ringNext_ % ringSize];
    e.cycle = now;
    e.what = what;
    e.core = core;
    e.addr = addr;
    e.aux = aux;
    e.seq = ringNext_;
    ++ringNext_;
}

bool
StateAuditor::required(AuditScope scope) const
{
    switch (level_) {
      case AuditLevel::Off:
        return false;
      case AuditLevel::TxnBoundary:
        return scope != AuditScope::Transition;
      case AuditLevel::Transition:
        return true;
    }
    return false;
}

void
StateAuditor::checkpoint(AuditScope scope, Cycles now, const char *what)
{
    if (!required(scope))
        return;
    sweep(now, what);
}

void
StateAuditor::sweep(Cycles now, const char *what)
{
    if (inSweep_)
        return;
    inSweep_ = true;
    ++sweepsRun_;
    const std::size_t before = violations_.size();

    sweepLines(now);
    sweepSignatures(now);
    sweepCsts(now);
    sweepOt(now);
    sweepAou(now);
    sweepHtmBounds(now);

    if (violations_.size() == before) {
        lastCleanCycle_ = now;
        lastCleanSeq_ = ringNext_;
        lastCleanWhat_ = what;
    }
    inSweep_ = false;
}

bool
StateAuditor::doomed(const PerCore &pc)
{
    if (pc.tswAddr == 0)
        return false;
    std::uint32_t v = 0;
    ms_.peek(pc.tswAddr, &v, 4);
    return v != pc.tswActive;
}

std::string
StateAuditor::bundle(Cycles now, const char *invariant, CoreId core,
                     Addr addr, const std::string &detail) const
{
    std::ostringstream os;
    os << "=== FlexTM state-auditor violation ===\n";
    os << "invariant: " << invariant << "\n";
    os << "detail:    " << detail << "\n";
    os << "cycle:     " << now << "  core: " << int(core)
       << "  addr: 0x" << std::hex << addr << std::dec << "\n";
    if (oracle_ && !oracle_->context().empty())
        os << "context:   " << oracle_->context() << "\n";
    os << "config:    seed=" << cfg_.seed << " cores=" << cfg_.cores
       << " l1Bytes=" << cfg_.l1Bytes
       << " victimEntries=" << cfg_.victimEntries
       << " sigBits=" << cfg_.signatureBits
       << " faultSeed=" << cfg_.fault.seed << "\n";
    os << "window:    after checkpoint '" << lastCleanWhat_
       << "' (cycle " << lastCleanCycle_ << ", event seq "
       << lastCleanSeq_ << ") .. now (event seq " << ringNext_
       << "): " << (ringNext_ - lastCleanSeq_)
       << " events to bisect\n";
    os << "last events (oldest first):\n";
    const std::uint64_t n =
        ringNext_ < ringSize ? ringNext_ : ringSize;
    for (std::uint64_t i = ringNext_ - n; i < ringNext_; ++i) {
        const Event &e = ring_[i % ringSize];
        os << "  seq " << e.seq << " cyc " << e.cycle << " core "
           << int(e.core) << " " << (e.what ? e.what : "?") << " 0x"
           << std::hex << e.addr << " aux 0x" << e.aux << std::dec
           << (e.seq >= lastCleanSeq_ ? "  <- in window" : "") << "\n";
    }
    os << "replay: same build + config + seed reproduces "
          "deterministically; set FLEXTM_AUDITOR=transition to "
          "tighten the window\n";
    return os.str();
}

void
StateAuditor::violation(Cycles now, const char *invariant, CoreId core,
                        Addr addr, const std::string &detail)
{
    lastBundle_ = bundle(now, invariant, core, addr, detail);
    if (collect_) {
        violations_.push_back(
            {invariant, detail, now, core, addr});
        return;
    }
    std::fputs(lastBundle_.c_str(), stderr);
    panic("state-auditor invariant %s violated: %s", invariant,
          detail.c_str());
}

void
StateAuditor::sweepLines(Cycles now)
{
    view_.clear();
    for (CoreId k = 0; k < static_cast<CoreId>(cfg_.cores); ++k) {
        ms_.l1(k).forEachValid([&](L1Line &l) {
            LineView &v = view_[l.base];
            switch (l.state) {
              case LineState::M:
                v.m |= bit(k);
                break;
              case LineState::E:
                v.e |= bit(k);
                break;
              case LineState::S:
                v.s |= bit(k);
                break;
              case LineState::TI:
                v.ti |= bit(k);
                break;
              case LineState::TMI:
                v.tmi |= bit(k);
                break;
              case LineState::I:
                break;
            }
            if (l.aBit)
                v.abit |= bit(k);
        });
    }

    for (const auto &[addr, v] : view_) {
        const std::uint64_t nonspec = v.m | v.e;
        if (std::popcount(nonspec) > 1)
            violation(now, "I1 dir-l1", invalidCore, addr,
                      "multiple non-speculative (M/E) holders: mask 0x" +
                          toHex(nonspec));
        if (nonspec != 0 && v.s != 0)
            violation(now, "I1 dir-l1", invalidCore, addr,
                      "plain S sharers (mask 0x" + toHex(v.s) +
                          ") coexist with an M/E copy (mask 0x" +
                          toHex(nonspec) + ")");

        L2Line *l2l = ms_.l2().probe(addr);
        if (!l2l) {
            violation(now, "I2 inclusion", invalidCore, addr,
                      "valid L1 copies (M/E 0x" + toHex(nonspec) +
                          " S 0x" + toHex(v.s) + " TI 0x" +
                          toHex(v.ti) + " TMI 0x" + toHex(v.tmi) +
                          ") with no valid L2 line");
            continue;
        }
        const DirEntry &d = l2l->dir;
        forEachBit(v.e, [&](CoreId k) {
            if (d.exclusive != k)
                violation(now, "I1 dir-l1", k, addr,
                          "E copy but directory exclusive is " +
                              std::to_string(int(d.exclusive)));
        });
        forEachBit(v.m, [&](CoreId k) {
            if (d.exclusive != k && !(d.owners & bit(k)))
                violation(now, "I1 dir-l1", k, addr,
                          "M copy but directory names neither "
                          "exclusive nor owner (exclusive " +
                              std::to_string(int(d.exclusive)) +
                              ", owners 0x" + toHex(d.owners) + ")");
        });
        forEachBit(v.s | v.ti, [&](CoreId k) {
            if (!(d.sharers & bit(k)))
                violation(now, "I1 dir-l1", k, addr,
                          "S/TI copy but directory sharer bit clear "
                          "(sharers 0x" +
                              toHex(d.sharers) + ")");
        });
        forEachBit(v.tmi, [&](CoreId k) {
            if (!(d.owners & bit(k)))
                violation(now, "I1 dir-l1", k, addr,
                          "TMI copy but directory owner bit clear "
                          "(owners 0x" +
                              toHex(d.owners) + ")");
        });
    }
}

void
StateAuditor::sweepSignatures(Cycles now)
{
    for (CoreId k = 0; k < static_cast<CoreId>(cfg_.cores); ++k) {
        const PerCore &pc = cores_[k];
        const HwContext &ctx = ms_.context(k);
        if (!pc.registered || !ctx.inTx || pc.settling)
            continue;
        pc.readLines.forEachSorted([&](Addr line) {
            if (!ctx.rsig.mayContain(line))
                violation(now, "I3 sig-superset", k, line,
                          "Rsig lost a line the transaction read "
                          "(Bloom false negative is impossible: "
                          "state was corrupted or cleared early)");
        });
        pc.writeLines.forEachSorted([&](Addr line) {
            if (!ctx.wsig.mayContain(line))
                violation(now, "I3 sig-superset", k, line,
                          "Wsig lost a line the transaction wrote");
        });
        if (oracle_ && pc.tid != invalidThread) {
            oracle_->forEachOpenOp(
                pc.tid, [&](bool is_write, Addr a, unsigned) {
                    const Addr line = lineAlign(a);
                    const Signature &sig =
                        is_write ? ctx.wsig : ctx.rsig;
                    if (!sig.mayContain(line))
                        violation(
                            now, "I3 sig-superset", k, line,
                            std::string("oracle-logged ") +
                                (is_write ? "write" : "read") +
                                " not covered by the signature");
                });
        }
    }
}

void
StateAuditor::sweepCsts(Cycles now)
{
    const auto cores = static_cast<CoreId>(cfg_.cores);

    for (CoreId k = 0; k < cores; ++k) {
        const PerCore &pc = cores_[k];
        const HwContext &ctx = ms_.context(k);
        if (!pc.registered || !ctx.inTx)
            continue;
        const std::uint64_t bad_rw = ctx.cst.rw.raw() & ~pc.rwHist;
        const std::uint64_t bad_wr = ctx.cst.wr.raw() & ~pc.wrHist;
        const std::uint64_t bad_ww = ctx.cst.ww.raw() & ~pc.wwHist;
        if (bad_rw | bad_wr | bad_ww)
            violation(now, "I4 cst-history", k, 0,
                      "CST bits set with no recorded conflict event: "
                      "rw 0x" +
                          toHex(bad_rw) + " wr 0x" + toHex(bad_wr) +
                          " ww 0x" + toHex(bad_ww));
    }

    // Duality: only between two live, cooperating, non-settling,
    // non-virtualized, non-doomed transactional cores (outside those
    // windows a one-sided bit is a legal conservative leftover).
    std::uint64_t live = 0;
    for (CoreId k = 0; k < cores; ++k) {
        PerCore &pc = cores_[k];
        const HwContext &ctx = ms_.context(k);
        if (pc.registered && pc.tracksCsts && ctx.inTx &&
            !pc.settling && !pc.virtualized && !doomed(pc))
            live |= bit(k);
    }
    forEachBit(live, [&](CoreId i) {
        const HwContext &ci = ms_.context(i);
        const PerCore &pi = cores_[i];
        const std::uint64_t to_check = live & ~bit(i);
        forEachBit(ci.cst.rw.raw() & to_check & ~pi.oneSidedRw,
                   [&](CoreId k) {
            if (!ms_.context(k).cst.wr.test(i))
                violation(now, "I5 cst-duality", i, 0,
                          "R-W[" + std::to_string(int(k)) +
                              "] set but peer's W-R[" +
                              std::to_string(int(i)) + "] clear");
        });
        forEachBit(ci.cst.wr.raw() & to_check & ~pi.oneSidedWr,
                   [&](CoreId k) {
            if (!ms_.context(k).cst.rw.test(i))
                violation(now, "I5 cst-duality", i, 0,
                          "W-R[" + std::to_string(int(k)) +
                              "] set but peer's R-W[" +
                              std::to_string(int(i)) + "] clear");
        });
        forEachBit(ci.cst.ww.raw() & to_check & ~pi.oneSidedWw,
                   [&](CoreId k) {
            if (!ms_.context(k).cst.ww.test(i))
                violation(now, "I5 cst-duality", i, 0,
                          "W-W[" + std::to_string(int(k)) +
                              "] set but peer's W-W[" +
                              std::to_string(int(i)) + "] clear");
        });
    });
}

void
StateAuditor::sweepOt(Cycles now)
{
    for (CoreId k = 0; k < static_cast<CoreId>(cfg_.cores); ++k) {
        const HwContext &ctx = ms_.context(k);
        if (!ctx.ot || ctx.ot->committed())
            continue;
        ctx.ot->forEach([&](const OtEntry &e) {
            if (!ctx.ot->mayContain(e.physical))
                violation(now, "I6 ot-exclusive", k, e.physical,
                          "OT entry not covered by the Osig");
            const L1Line *l = ms_.l1(k).probe(e.physical);
            if (l && l->valid())
                violation(now, "I6 ot-exclusive", k, e.physical,
                          "line buffered in the OT is also valid in "
                          "the owning core's L1");
        });
    }
}

void
StateAuditor::sweepHtmBounds(Cycles now)
{
    for (CoreId k = 0; k < static_cast<CoreId>(cfg_.cores); ++k) {
        const PerCore &pc = cores_[k];
        const HwContext &ctx = ms_.context(k);
        if (!pc.registered || !pc.htmBounded || !ctx.inTx)
            continue;
        if (pc.readLines.size() > pc.htmReadBound)
            violation(now, "I8 htm-bounds", k, 0,
                      "bounded transaction read " +
                          std::to_string(pc.readLines.size()) +
                          " lines, declared bound " +
                          std::to_string(pc.htmReadBound));
        if (pc.writeLines.size() > pc.htmWriteBound)
            violation(now, "I8 htm-bounds", k, 0,
                      "bounded transaction wrote " +
                          std::to_string(pc.writeLines.size()) +
                          " lines, declared bound " +
                          std::to_string(pc.htmWriteBound));
        // Capacity-abort justification: a bounded transaction never
        // virtualizes, so its OT may only hold lines after the
        // overflow trap announced the (doomed) overflow.
        if (ctx.ot && !ctx.ot->empty() && !pc.htmOverflowAnnounced)
            violation(now, "I8 htm-bounds", k, 0,
                      "bounded transaction's overflow table is "
                      "occupied without an announced capacity "
                      "overflow");
    }
}

void
StateAuditor::sweepAou(Cycles now)
{
    for (CoreId k = 0; k < static_cast<CoreId>(cfg_.cores); ++k) {
        const PerCore &pc = cores_[k];
        const HwContext &ctx = ms_.context(k);
        if (!pc.registered || pc.settling)
            continue;
        if (ctx.aou.alertPending())
            continue;
        ctx.aou.markedLines().forEachSorted([&](Addr line) {
            const L1Line *l = ms_.l1(k).probe(line);
            const bool cached = l && l->valid();
            if (!cached || !l->aBit)
                violation(now, "I7 aou-live", k, line,
                          cached ? "AOU-marked line cached without "
                                   "its A bit and no pending alert"
                                 : "AOU-marked line not cached and "
                                   "no pending alert");
        });
    }
}

} // namespace flextm
