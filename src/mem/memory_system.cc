#include "mem/memory_system.hh"

#include <algorithm>
#include <cstring>

#include "sim/trace.hh"

namespace flextm
{

namespace
{

/** L1 hit latency (Table 3a: 1 cycle). */
constexpr Cycles l1HitLatency = 1;

/** L2 hit latency (Table 3a: 20 cycles).  The L2's banks are not
 *  modelled, so every L2 access costs this. */
constexpr Cycles l2HitLatency = 20;

constexpr std::uint64_t
bit(CoreId c)
{
    return std::uint64_t{1} << c;
}

const char *
accessTypeName(AccessType t)
{
    switch (t) {
      case AccessType::Load:
        return "Load";
      case AccessType::Store:
        return "Store";
      case AccessType::TLoad:
        return "TLoad";
      case AccessType::TStore:
        return "TStore";
    }
    return "?";
}

} // anonymous namespace

MemorySystem::HotCounters::HotCounters(StatRegistry &s)
    : l1Hits(s.counter("l1.hits")), l1Misses(s.counter("l1.misses")),
      l1Upgrades(s.counter("l1.upgrades")),
      l1Writebacks(s.counter("l1.writebacks")),
      l1SilentEvictions(s.counter("l1.silent_evictions")),
      l1UncachedLoads(s.counter("l1.uncached_loads")),
      l2Misses(s.counter("l2.misses")),
      l2Evictions(s.counter("l2.evictions")),
      dirRequests(s.counter("dir.requests")),
      dirForwards(s.counter("dir.forwards")),
      dirFlushes(s.counter("dir.flushes")),
      otAllocations(s.counter("ot.allocations")),
      otSpills(s.counter("ot.spills")),
      otRefills(s.counter("ot.refills")),
      otNacks(s.counter("ot.nacks")),
      otFalsePositives(s.counter("ot.false_positives")),
      otCommitCopybacks(s.counter("ot.commit_copybacks")),
      commitSuccess(s.counter("commit.success")),
      commitFailedCsts(s.counter("commit.failed_csts")),
      commitFailedAborted(s.counter("commit.failed_aborted")),
      abortFlash(s.counter("abort.flash")),
      siAborts(s.counter("si.aborts")),
      memCasOps(s.counter("mem.cas_ops")),
      pdiTmiInstalls(s.counter("pdi.tmi_installs")),
      pdiTmiFromM(s.counter("pdi.tmi_from_m")),
      pdiTiInstalls(s.counter("pdi.ti_installs")),
      pdiTiUpgradeRefreshes(s.counter("pdi.ti_upgrade_refreshes")),
      aouTiAloads(s.counter("aou.ti_aloads")),
      faultTmiEvictions(s.counter("fault.tmi_evictions")),
      osCtxswitchSpills(s.counter("os.ctxswitch_spills"))
{
}

MemorySystem::MemorySystem(const MachineConfig &cfg, SimMemory &mem,
                           std::vector<HwContext> &contexts,
                           StatRegistry &stats)
    : cfg_(cfg), mem_(mem), contexts_(contexts), stats_(stats),
      ctr_(stats),
      net_(cfg.cores),
      l2_(cfg.l2Bytes, cfg.l2Ways),
      membe_(makeMemBackend(cfg_, stats))
{
    sim_assert(cfg.cores <= maxCstCores);
    sim_assert(contexts_.size() == cfg.cores);
    l1s_.reserve(cfg.cores);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        l1s_.push_back(std::make_unique<L1Cache>(
            cfg.l1Bytes, cfg.l1Ways, cfg.victimEntries,
            cfg.unboundedVictimBuffer));
    }
    retiredOt_.resize(cfg.cores);
    // OT lives in (cached) virtual memory: model one controller
    // access as an L2-class access plus the tree traversal.
    otLatency_ = l2HitLatency + net_.l1ToL2RoundTrip();
    if (cfg_.auditor != AuditLevel::Off)
        auditor_ = std::make_unique<StateAuditor>(cfg_, *this);
}

// ---- Auditor-wrapped public entry points -------------------------
//
// Each protocol operation logs one trace-ring event on entry and runs
// a transition-scope checkpoint once its state is settled.  The
// checkpoint charges no simulated cycles, so results are identical
// with the auditor on or off.

MemResult
MemorySystem::access(CoreId core, AccessType type, Addr addr,
                     unsigned size, void *buf, Cycles now)
{
    if (!auditor_)
        return accessImpl(core, type, addr, size, buf, now);
    auditor_->noteEvent(now, accessTypeName(type), core,
                        lineAlign(addr), size);
    const MemResult r = accessImpl(core, type, addr, size, buf, now);
    auditor_->checkpoint(AuditScope::Transition, now + r.latency,
                         "access");
    return r;
}

CasOutcome
MemorySystem::cas(CoreId core, Addr addr, std::uint64_t expected,
                  std::uint64_t desired, unsigned size, Cycles now)
{
    if (!auditor_)
        return casImpl(core, addr, expected, desired, size, now);
    auditor_->noteEvent(now, "cas", core, addr, expected);
    const CasOutcome r =
        casImpl(core, addr, expected, desired, size, now);
    auditor_->checkpoint(AuditScope::Transition, now + r.latency,
                         "cas");
    return r;
}

CommitResult
MemorySystem::casCommit(CoreId core, Addr tsw_addr,
                        std::uint32_t expected, std::uint32_t desired,
                        Cycles now, bool check_csts)
{
    if (!auditor_) {
        return casCommitImpl(core, tsw_addr, expected, desired, now,
                             check_csts);
    }
    auditor_->noteEvent(now, "cas_commit", core, tsw_addr, desired);
    const CommitResult r =
        casCommitImpl(core, tsw_addr, expected, desired, now,
                      check_csts);
    auditor_->checkpoint(AuditScope::Transition, now + r.latency,
                         "cas_commit");
    return r;
}

Cycles
MemorySystem::abortTx(CoreId core, Cycles now)
{
    if (!auditor_)
        return abortTxImpl(core, now);
    auditor_->noteEvent(now, "abort_tx", core, 0, 0);
    const Cycles r = abortTxImpl(core, now);
    auditor_->checkpoint(AuditScope::Transition, now + r, "abort_tx");
    return r;
}

Cycles
MemorySystem::aload(CoreId core, Addr addr, Cycles now)
{
    if (!auditor_)
        return aloadImpl(core, addr, now);
    auditor_->noteEvent(now, "aload", core, lineAlign(addr), 0);
    const Cycles r = aloadImpl(core, addr, now);
    auditor_->checkpoint(AuditScope::Transition, now + r, "aload");
    return r;
}

Cycles
MemorySystem::flushTransactionalState(CoreId core, Cycles now)
{
    if (!auditor_)
        return flushTransactionalStateImpl(core, now);
    auditor_->noteEvent(now, "os_flush", core, 0, 0);
    const Cycles r = flushTransactionalStateImpl(core, now);
    auditor_->checkpoint(AuditScope::Transition, now + r, "os_flush");
    return r;
}

void
MemorySystem::applyToLine(L1Line &line, AccessType type, Addr addr,
                          unsigned size, void *buf)
{
    const unsigned off = static_cast<unsigned>(addr & lineMask);
    sim_assert(off + size <= lineBytes);
    if (isWrite(type))
        std::memcpy(line.data.data() + off, buf, size);
    else
        std::memcpy(buf, line.data.data() + off, size);
}

Cycles
MemorySystem::otNackDelay(Addr addr, Cycles now) const
{
    // Common case: no copy-back in flight anywhere - skip the scan.
    if (retiredBusyUntil_ <= now)
        return 0;
    Cycles delay = 0;
    for (unsigned k = 0; k < cfg_.cores; ++k) {
        const RetiredOt &r = retiredOt_[k];
        if (r.busyUntil > now && r.osig && r.osig->mayContain(addr)) {
            const Cycles d = r.busyUntil - now;
            if (d > delay)
                delay = d;
        }
    }
    return delay;
}

void
MemorySystem::spillToOt(CoreId core, L1Line &line)
{
    HwContext &ctx = contexts_[core];
    if (!ctx.ot) {
        sim_assert(ctx.trap != nullptr,
                   "TMI eviction with no OT and no allocation trap");
        ctx.trap->otAllocTrap();
        sim_assert(ctx.ot != nullptr,
                   "OT allocation trap did not install a table");
        ++ctr_.otAllocations;
    }
    // Logical == physical in the flat image; the OS paging module
    // retags entries when it remaps pages.
    ctx.ot->insert(line.base, line.base, line.data.data());
    ++ctr_.otSpills;
    pendingEvictCost_ += otLatency_;
}

L1Line &
MemorySystem::allocL1(CoreId core, Addr addr, Cycles now)
{
    return l1s_[core]->allocate(addr, now, [this, core, now](L1Line &v) {
        evictL1Line(core, v, now);
    });
}

void
MemorySystem::evictL1Line(CoreId core, L1Line &line, Cycles now)
{
    if (line.aBit)
        contexts_[core].aou.raise(AlertCause::Capacity, line.base);

    switch (line.state) {
      case LineState::M: {
          // Writeback data to L2; directory state is left unchanged
          // (Section 4.1).
          Cycles lat = 0;
          L2Line &l2l = l2FillOrFind(line.base, now, lat);
          l2l.data = line.data;
          l2l.dirty = true;
          pendingEvictCost_ += net_.l1ToL2();
          ++ctr_.l1Writebacks;
          break;
      }
      case LineState::TMI:
        spillToOt(core, line);
        break;
      case LineState::E:
      case LineState::S:
      case LineState::TI:
        // Silent eviction: the directory keeps the (sticky) entry so
        // this core continues to see the requests it needs for
        // conflict detection.
        ++ctr_.l1SilentEvictions;
        break;
      case LineState::I:
        break;
    }
    line.state = LineState::I;
    line.aBit = false;
}

void
MemorySystem::evictL2Line(L2Line &line, Cycles now)
{
    if (!line.valid)
        return;
    ++ctr_.l2Evictions;
    // Recall every cached L1 copy (rare: only when an L2 set fills
    // with lines that still have L1 residents).
    for (unsigned k = 0; k < cfg_.cores; ++k) {
        L1Line *ll = l1s_[k]->probe(line.base);
        if (!ll || !ll->valid())
            continue;
        if (ll->state == LineState::M) {
            line.data = ll->data;
            line.dirty = true;
        } else if (ll->state == LineState::TMI) {
            spillToOt(k, *ll);
        }
        if (ll->aBit)
            contexts_[k].aou.raise(AlertCause::Capacity, line.base);
        l1s_[k]->invalidate(*ll);
    }
    if (line.dirty) {
        mem_.write(line.base, line.data.data(), lineBytes);
        // Post the writeback to the memory backend.  The returned
        // stall (nonzero only when the backend's write queue is full)
        // is charged to whichever operation triggered the eviction.
        pendingEvictCost_ += membe_->write(line.base, now);
    }
}

L2Line &
MemorySystem::l2FillOrFind(Addr addr, Cycles now, Cycles &latency)
{
    if (L2Line *l = l2_.find(addr, now))
        return *l;

    latency += membe_->read(lineAlign(addr), now);
    ++ctr_.l2Misses;
    L2Line &nl = l2_.allocate(
        addr, now, [this, now](L2Line &victim) {
            evictL2Line(victim, now);
        });
    mem_.read(nl.base, nl.data.data(), lineBytes);

    // Sharer-list recreation (Section 4.1): on an L2 miss the
    // directory queries all L1 signatures so that conflict tracking
    // survives the loss of directory state ("sticky bits").
    for (unsigned k = 0; k < cfg_.cores; ++k) {
        const HwContext &ck = contexts_[k];
        if (!ck.inTx)
            continue;
        if (ck.wsig.mayContain(addr))
            nl.dir.owners |= bit(k);
        else if (ck.rsig.mayContain(addr))
            nl.dir.sharers |= bit(k);
    }
    return nl;
}

RemoteResp
MemorySystem::forwardOne(CoreId k, CoreId requestor, ReqType t,
                         Addr addr, L2Line &l2line, bool &retained_tmi,
                         bool &retained_shared)
{
    HwContext &ck = contexts_[k];
    L1Line *line = l1s_[k]->probe(addr);
    const bool w_hit = ck.inTx && ck.wsig.mayContain(addr);
    const bool r_hit = ck.inTx && ck.rsig.mayContain(addr);

    // Signature-derived response (Figure 1 table) + responder-side
    // CST update (Section 3.2).
    RemoteResp resp = RemoteResp::None;
    switch (t) {
      case ReqType::GETS:
        if (w_hit) {
            resp = RemoteResp::Threatened;
            ck.cst.wr.set(requestor);
            if (auditor_)
                auditor_->noteCstSet(k, CstKind::Wr, bit(requestor));
        } else if (line && line->valid()) {
            resp = RemoteResp::Shared;
        }
        break;
      case ReqType::TGETX:
        if (w_hit) {
            resp = RemoteResp::Threatened;
            ck.cst.ww.set(requestor);
            if (auditor_)
                auditor_->noteCstSet(k, CstKind::Ww, bit(requestor));
        } else if (r_hit) {
            resp = RemoteResp::ExposedRead;
            ck.cst.rw.set(requestor);
            if (auditor_)
                auditor_->noteCstSet(k, CstKind::Rw, bit(requestor));
        } else {
            resp = RemoteResp::Invalidated;
        }
        break;
      case ReqType::GETX:
        // A non-transactional write that hits in a responder's Rsig
        // or Wsig aborts the responder's transaction so the plain
        // write serializes before it (strong isolation, Section 3.5).
        resp = w_hit ? RemoteResp::Threatened : RemoteResp::Invalidated;
        if ((w_hit || r_hit) && ck.inTx) {
            ++ctr_.siAborts;
            if (ck.trap)
                ck.trap->strongAbort(requestor);
        }
        break;
    }

    if (line && line->valid()) {
        switch (line->state) {
          case LineState::M:
            // Flush: data to requestor and directory.
            l2line.data = line->data;
            l2line.dirty = true;
            ++ctr_.dirFlushes;
            if (t == ReqType::GETS) {
                line->state = LineState::S;
                retained_shared = true;
            } else {
                if (line->aBit)
                    ck.aou.raise(AlertCause::RemoteUpdate, line->base);
                l1s_[k]->invalidate(*line);
            }
            break;
          case LineState::E:
          case LineState::S:
          case LineState::TI:
            if (t == ReqType::GETS) {
                if (line->state == LineState::E)
                    line->state = LineState::S;
                retained_shared = true;
            } else {
                if (line->aBit)
                    ck.aou.raise(AlertCause::RemoteUpdate, line->base);
                l1s_[k]->invalidate(*line);
            }
            break;
          case LineState::TMI:
            if (t == ReqType::GETX) {
                // The responder's transaction is being aborted for
                // strong isolation; surrender this line now.  The
                // rest of its TMI state flash-aborts when it takes
                // the alert.
                l1s_[k]->invalidate(*line);
            } else {
                // Multiple-owner support: TMI copies persist across
                // remote GETS and TGETX (Section 3.3).
                retained_tmi = true;
            }
            break;
          case LineState::I:
            break;
        }
    }
    return resp;
}

MemorySystem::DirOutcome
MemorySystem::dirTransaction(CoreId core, ReqType req_type, Addr addr,
                             Cycles now)
{
    DirOutcome out;
    out.latency = net_.l1ToL2RoundTrip() + l2HitLatency;
    ++ctr_.dirRequests;
    FTRACE(Protocol, now, "core%u %s 0x%llx", core,
           reqTypeName(req_type), (unsigned long long)lineAlign(addr));

    // Summary-signature check for descheduled transactions
    // (Section 5): the L2 consults RSsig/WSsig on every L1 miss.
    if (os_) {
        const OsHandler::MissCheck mc =
            os_->summaryMiss(core, req_type, addr, now);
        out.latency += mc.latency;
        out.summaryThreatened = mc.threatened;
    }

    // Requests racing with a committed overflow table's copy-back
    // are NACKed until the copy-back completes (Section 4.1).
    const Cycles nack = otNackDelay(addr, now);
    if (nack > 0) {
        out.latency += nack;
        ++ctr_.otNacks;
    }

    L2Line &l2l = l2FillOrFind(addr, now, out.latency);
    DirEntry &d = l2l.dir;
    const std::uint64_t self = bit(core);

    std::uint64_t targets = 0;
    if (d.exclusive != invalidCore && d.exclusive != core)
        targets |= bit(d.exclusive);
    targets |= d.owners & ~self;
    if (req_type != ReqType::GETS)
        targets |= d.sharers & ~self;

    std::uint64_t new_sharers = d.sharers;
    std::uint64_t new_owners = d.owners;
    CoreId new_excl = d.exclusive;

    if (targets) {
        out.latency += net_.forwardRoundTrip() + 1;
        ++ctr_.dirForwards;

        ConflictSummaryTable::forEach(targets, [&](CoreId k) {
            bool retained_tmi = false;
            bool retained_shared = false;
            const RemoteResp r =
                forwardOne(k, core, req_type, addr, l2l, retained_tmi,
                           retained_shared);
            if (r == RemoteResp::Threatened ||
                r == RemoteResp::ExposedRead) {
                FTRACE(Protocol, now, "core%u <- core%u %s on 0x%llx",
                       core, k,
                       r == RemoteResp::Threatened ? "Threatened"
                                                   : "Exposed-Read",
                       (unsigned long long)lineAlign(addr));
            }
            if (r == RemoteResp::Threatened)
                out.fwd.threatened |= bit(k);
            else if (r == RemoteResp::ExposedRead)
                out.fwd.exposedRead |= bit(k);

            // Directory membership update for k.  Signature hits
            // keep a core in the lists even when its cached copy is
            // gone (silent eviction / OT spill): the core must keep
            // receiving the requests it needs for conflict tracking.
            const HwContext &ck = contexts_[k];
            const bool w_hit = ck.inTx && ck.wsig.mayContain(addr);
            const bool r_hit = ck.inTx && ck.rsig.mayContain(addr);
            const bool sticky = os_ && os_->sticky(k, addr);

            const bool keep_owner =
                retained_tmi || w_hit ||
                (sticky && (d.owners & bit(k)) != 0);
            const bool keep_sharer =
                retained_shared || (r_hit && !keep_owner) ||
                (sticky && (d.sharers & bit(k)) != 0);

            if (new_excl == k) {
                new_excl = invalidCore;
                if (retained_shared)
                    new_sharers |= bit(k);
            }
            if (keep_owner)
                new_owners |= bit(k);
            else
                new_owners &= ~bit(k);
            if (keep_sharer)
                new_sharers |= bit(k);
            else
                new_sharers &= ~bit(k);
        });
    }

    d.sharers = new_sharers;
    d.owners = new_owners;
    d.exclusive = new_excl;
    out.line = &l2l;
    return out;
}

MemResult
MemorySystem::accessImpl(CoreId core, AccessType type, Addr addr,
                         unsigned size, void *buf, Cycles now)
{
    sim_assert(core < cfg_.cores);
    sim_assert(size >= 1 && size <= 8);
    sim_assert((addr & lineMask) + size <= lineBytes,
               "access crosses a cache line");
    HwContext &ctx = contexts_[core];
    L1Cache &l1 = *l1s_[core];

    MemResult res;
    res.latency = l1HitLatency;

    // Fault injection: evict a speculative line before the access so
    // the overflow-table spill/refill path is exercised under load
    // rather than only by giant working sets.  Only meaningful for
    // PDI runtimes (an OT or its allocation trap must be present).
    if (fault_ && ctx.inTx && (ctx.ot || ctx.trap) &&
        fault_->fire(FaultKind::TmiEvict) &&
        l1.evictOneInState(LineState::TMI,
                           [this, core, now](L1Line &v) {
                               evictL1Line(core, v, now);
                           })) {
        res.latency += pendingEvictCost_;
        pendingEvictCost_ = 0;
        ++ctr_.faultTmiEvictions;
        FTRACE(Fault, now, "core%u forced TMI eviction", core);
    }

    // FlexWatcher (Section 8): when monitoring is active, local
    // stores test membership in Wsig and local loads in Rsig; a hit
    // alerts to the registered handler.
    if (ctx.monitorActive) {
        const Signature &sig = isWrite(type) ? ctx.wsig : ctx.rsig;
        if (sig.mayContain(addr))
            ctx.aou.raise(AlertCause::SigLocalAccess, addr);
    }

    if (type == AccessType::TLoad) {
        ctx.rsig.insert(addr);
        if (auditor_)
            auditor_->noteAccess(core, false, addr);
    } else if (type == AccessType::TStore) {
        ctx.wsig.insert(addr);
        if (auditor_)
            auditor_->noteAccess(core, true, addr);
    }

    L1Line *line = l1.find(addr, now);

    // ---- Hit paths -----------------------------------------------
    if (line) {
        switch (type) {
          case AccessType::Load:
          case AccessType::TLoad:
            ++ctr_.l1Hits;
            applyToLine(*line, type, addr, size, buf);
            return res;
          case AccessType::Store:
            if (line->state == LineState::M ||
                line->state == LineState::E) {
                line->state = LineState::M;
                ++ctr_.l1Hits;
                applyToLine(*line, type, addr, size, buf);
                return res;
            }
            sim_assert(line->state != LineState::TMI,
                       "non-transactional store to a local TMI line");
            break;  // S / TI: GETX upgrade
          case AccessType::TStore:
            if (line->state == LineState::TMI) {
                ++ctr_.l1Hits;
                applyToLine(*line, type, addr, size, buf);
                return res;
            }
            if (line->state == LineState::M) {
                // First TStore to an M line: write the modified line
                // back to L2 so later Loads elsewhere see the latest
                // non-speculative version (Section 3.3), then keep
                // the buffered copy speculative.
                Cycles lat = 0;
                L2Line &l2l = l2FillOrFind(line->base, now, lat);
                l2l.data = line->data;
                l2l.dirty = true;
                res.latency += net_.l1ToL2() + lat;
                if (l2l.dir.exclusive == core) {
                    l2l.dir.exclusive = invalidCore;
                    l2l.dir.owners |= bit(core);
                }
                line->state = LineState::TMI;
                applyToLine(*line, type, addr, size, buf);
                ++ctr_.pdiTmiFromM;
                return res;
            }
            break;  // E / S / TI: TGETX upgrade
        }
    }

    // ---- Overflow-table lookaside (Section 4.1) ------------------
    if (!line && ctx.ot && !ctx.ot->committed() &&
        ctx.ot->mayContain(addr)) {
        std::uint8_t tmp[lineBytes];
        if (ctx.ot->fetchAndInvalidate(addr, tmp)) {
            sim_assert(type != AccessType::Store,
                       "non-transactional store hit own OT line");
            L1Line &fr = allocL1(core, addr, now);
            fr.state = LineState::TMI;
            std::memcpy(fr.data.data(), tmp, lineBytes);
            res.latency += otLatency_ + pendingEvictCost_;
            pendingEvictCost_ = 0;
            ++ctr_.otRefills;
            if (auditor_)
                auditor_->noteEvent(now, "ot_refill", core, addr, 0);
            applyToLine(fr, type, addr, size, buf);
            return res;
        }
        ++ctr_.otFalsePositives;
    }

    // ---- Miss / upgrade: directory transaction -------------------
    ++(line ? ctr_.l1Upgrades : ctr_.l1Misses);
    const ReqType rt = !isWrite(type)     ? ReqType::GETS
                       : type == AccessType::Store ? ReqType::GETX
                                                   : ReqType::TGETX;

    DirOutcome dir = dirTransaction(core, rt, addr, now);
    res.latency += dir.latency;
    res.threatenedBy = dir.fwd.threatened;
    res.exposedReadBy = dir.fwd.exposedRead;

    // Requestor-side CST updates (Section 3.2).
    if (type == AccessType::TLoad) {
        ConflictSummaryTable::forEach(dir.fwd.threatened,
                                      [&](CoreId k) {
                                          ctx.cst.rw.set(k);
                                      });
        if (auditor_)
            auditor_->noteCstSet(core, CstKind::Rw,
                                 dir.fwd.threatened);
    } else if (type == AccessType::TStore) {
        ConflictSummaryTable::forEach(dir.fwd.threatened,
                                      [&](CoreId k) {
                                          ctx.cst.ww.set(k);
                                      });
        ConflictSummaryTable::forEach(dir.fwd.exposedRead,
                                      [&](CoreId k) {
                                          ctx.cst.wr.set(k);
                                      });
        if (auditor_) {
            auditor_->noteCstSet(core, CstKind::Ww,
                                 dir.fwd.threatened);
            auditor_->noteCstSet(core, CstKind::Wr,
                                 dir.fwd.exposedRead);
        }
    }

    L2Line *l2l = dir.line;
    DirEntry &d = l2l->dir;
    const bool threatened =
        dir.fwd.threatened != 0 || dir.summaryThreatened;

    switch (rt) {
      case ReqType::GETS: {
          if (type == AccessType::Load && threatened) {
              // A threatened plain load is satisfied from the stable
              // L2 copy but left uncached, so it serializes before
              // the (still invisible) speculative writer.
              const unsigned off = static_cast<unsigned>(addr & lineMask);
              std::memcpy(buf, l2l->data.data() + off, size);
              res.uncached = true;
              ++ctr_.l1UncachedLoads;
              return res;
          }
          sim_assert(!line, "GETS with line present");
          L1Line &fr = allocL1(core, addr, now);
          fr.data = l2l->data;
          if (type == AccessType::TLoad && threatened) {
              fr.state = LineState::TI;
              d.sharers |= bit(core);
              ++ctr_.pdiTiInstalls;
          } else if (!d.anyCached()) {
              fr.state = LineState::E;
              d.exclusive = core;
          } else {
              fr.state = LineState::S;
              d.sharers |= bit(core);
          }
          applyToLine(fr, type, addr, size, buf);
          res.latency += pendingEvictCost_;
          pendingEvictCost_ = 0;
          return res;
      }
      case ReqType::GETX: {
          if (!line)
              line = &allocL1(core, addr, now);
          line->data = l2l->data;
          line->state = LineState::M;
          d.clear();
          d.exclusive = core;
          applyToLine(*line, type, addr, size, buf);
          res.latency += pendingEvictCost_;
          pendingEvictCost_ = 0;
          return res;
      }
      case ReqType::TGETX: {
          if (!line)
              line = &allocL1(core, addr, now);
          else if (line->state == LineState::TI)
              ++ctr_.pdiTiUpgradeRefreshes;
          // Refresh the base image on upgrades too: a TI copy is the
          // stable version from *install* time and may miss commits
          // that happened since; publishing it at flash commit would
          // clobber those words.  dirTransaction has already flushed
          // any remote M copy, so the L2 line is the freshest stable
          // data.
          line->data = l2l->data;
          line->state = LineState::TMI;
          if (d.exclusive == core)
              d.exclusive = invalidCore;
          d.sharers &= ~bit(core);
          d.owners |= bit(core);
          applyToLine(*line, type, addr, size, buf);
          res.latency += pendingEvictCost_;
          pendingEvictCost_ = 0;
          ++ctr_.pdiTmiInstalls;
          return res;
      }
    }
    panic("unreachable");
}

CasOutcome
MemorySystem::casImpl(CoreId core, Addr addr, std::uint64_t expected,
                      std::uint64_t desired, unsigned size, Cycles now)
{
    sim_assert(size == 4 || size == 8);
    L1Cache &l1 = *l1s_[core];
    CasOutcome out;
    out.latency = l1HitLatency + 2;  // rmw sequencing

    L1Line *line = l1.find(addr, now);
    if (!line || (line->state != LineState::M &&
                  line->state != LineState::E)) {
        sim_assert(!line || line->state != LineState::TMI,
                   "CAS on a speculative (TMI) line");
        DirOutcome dir = dirTransaction(core, ReqType::GETX, addr, now);
        out.latency += dir.latency;
        if (!line) {
            line = &allocL1(core, addr, now);
            line->data = dir.line->data;
        }
        dir.line->dir.clear();
        dir.line->dir.exclusive = core;
        out.latency += pendingEvictCost_;
        pendingEvictCost_ = 0;
    }
    line->state = LineState::M;

    const unsigned off = static_cast<unsigned>(addr & lineMask);
    std::uint64_t old = 0;
    std::memcpy(&old, line->data.data() + off, size);
    out.oldValue = old;
    if (old == expected) {
        std::memcpy(line->data.data() + off, &desired, size);
        out.success = true;
    }
    ++ctr_.memCasOps;
    return out;
}

CommitResult
MemorySystem::casCommitImpl(CoreId core, Addr tsw_addr,
                            std::uint32_t expected,
                            std::uint32_t desired, Cycles now,
                            bool check_csts)
{
    HwContext &ctx = contexts_[core];
    CommitResult res;
    res.latency = l1HitLatency;

    // Hardware check: commit is illegal while unresolved write
    // conflicts remain in the CSTs (Section 3.6).  RTM-F style
    // runtimes that use PDI without CSTs bypass the check.
    if (check_csts &&
        (ctx.cst.wr.raw() | ctx.cst.ww.raw()) != 0) {
        res.outcome = CommitOutcome::FailedCsts;
        ++ctr_.commitFailedCsts;
        return res;
    }

    CasOutcome c = casImpl(core, tsw_addr, expected, desired, 4, now);
    res.latency += c.latency;

    if (!c.success) {
        // We lost a race with an enemy's abort: discard speculation.
        res.latency += abortTxImpl(core, now);
        res.outcome = CommitOutcome::FailedAborted;
        ++ctr_.commitFailedAborted;
        return res;
    }

    // Flash commit: TMI -> M and TI -> I in one cycle (T-bit clear).
    l1s_[core]->flashCommit();

    // Overflow-table copy-back (Section 4.1): flip the Committed
    // bit, then the controller streams entries back to their home
    // locations in the background; requests racing with the
    // copy-back are NACKed via retiredOt_.
    if (ctx.ot && !ctx.ot->empty()) {
        ctx.ot->setCommitted(true);
        const std::size_t n = ctx.ot->count();
        Cycles fill_lat = 0;
        ctx.ot->forEach([&](const OtEntry &e) {
            L2Line &l2l = l2FillOrFind(e.physical, now, fill_lat);
            l2l.data = e.data;
            l2l.dirty = true;
            l2l.dir.owners &= ~(std::uint64_t{1} << core);
        });
        retiredOt_[core].osig = ctx.ot->osig();
        retiredOt_[core].busyUntil =
            now + res.latency + n * otLatency_;
        retiredBusyUntil_ =
            std::max(retiredBusyUntil_, retiredOt_[core].busyUntil);
        ctx.ot->clear();
        ctr_.otCommitCopybacks += n;
    }

    res.outcome = CommitOutcome::Committed;
    ++ctr_.commitSuccess;
    FTRACE(Tm, now, "core%u CAS-Commit success", core);
    return res;
}

Cycles
MemorySystem::abortTxImpl(CoreId core, Cycles now)
{
    (void)now;
    HwContext &ctx = contexts_[core];
    l1s_[core]->flashAbort();
    if (ctx.ot)
        ctx.ot->clear();
    ++ctr_.abortFlash;
    return l1HitLatency;
}

Cycles
MemorySystem::aloadImpl(CoreId core, Addr addr, Cycles now)
{
    std::uint8_t dummy[8];
    MemResult r = accessImpl(core, AccessType::Load, lineAlign(addr),
                             8, dummy, now);
    L1Line *line = l1s_[core]->probe(addr);
    if (!line || !line->valid()) {
        // The plain load was answered uncached because the line is
        // threatened - possibly only via a signature false positive
        // against a status word or object header.  ALoad must still
        // establish a local copy to watch: install the stable L2
        // version as TI, exactly like a threatened TLoad.
        Cycles lat = 0;
        L2Line &l2l = l2FillOrFind(lineAlign(addr), now, lat);
        r.latency += net_.l1ToL2() + lat;
        L1Line &fr = allocL1(core, addr, now);
        fr.data = l2l.data;
        fr.state = LineState::TI;
        l2l.dir.sharers |= bit(core);
        r.latency += pendingEvictCost_;
        pendingEvictCost_ = 0;
        ++ctr_.aouTiAloads;
        line = &fr;
    }
    line->aBit = true;
    contexts_[core].aou.aload(addr);
    return r.latency;
}

void
MemorySystem::arelease(CoreId core, Addr addr)
{
    if (L1Line *line = l1s_[core]->probe(addr))
        line->aBit = false;
    contexts_[core].aou.arelease(addr);
}

Cycles
MemorySystem::flushTransactionalStateImpl(CoreId core, Cycles now)
{
    (void)now;
    Cycles lat = l1HitLatency;
    unsigned spilled = 0;
    l1s_[core]->forEachValid([&](L1Line &l) {
        if (l.state == LineState::TMI) {
            spillToOt(core, l);
            l.state = LineState::I;
            ++spilled;
        } else if (l.state == LineState::TI) {
            l.state = LineState::I;
        }
    });
    lat += pendingEvictCost_;
    pendingEvictCost_ = 0;
    ctr_.osCtxswitchSpills += spilled;
    return lat;
}

void
MemorySystem::peek(Addr addr, void *out, unsigned size)
{
    // Freshest committed copy: an M line in some L1, else L2, else
    // memory.  Speculative (TMI) data is intentionally invisible.
    const unsigned off = static_cast<unsigned>(addr & lineMask);
    for (unsigned k = 0; k < cfg_.cores; ++k) {
        const L1Line *l = l1s_[k]->probe(addr);
        if (l && l->state == LineState::M) {
            std::memcpy(out, l->data.data() + off, size);
            return;
        }
    }
    if (L2Line *l = l2_.probe(addr)) {
        std::memcpy(out, l->data.data() + off, size);
        return;
    }
    mem_.read(addr, out, size);
}

} // namespace flextm
