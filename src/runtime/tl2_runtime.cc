#include "runtime/tl2_runtime.hh"

#include "mem/memory_system.hh"
#include "runtime/conflict_manager.hh"
#include "sim/logging.hh"

namespace flextm
{

Tl2Globals::Tl2Globals(Machine &machine) : m(machine)
{
    clockAddr = m.memory().allocate(lineBytes, lineBytes);
    lockTableBase = m.memory().allocate(kTl2Stripes * 8, lineBytes);
}

Addr
Tl2Globals::lockFor(Addr a) const
{
    return lockTableBase + tl2StripeFor(a) * 8;
}

Tl2Thread::Tl2Thread(Machine &m, Tl2Globals &g, ThreadId tid,
                     CoreId core)
    : TxThread(m, tid, core), g_(g)
{
    logBase_ = m_.memory().allocate(64 * 1024, lineBytes);
}

void
Tl2Thread::logAppend(unsigned words)
{
    // Model the read/write-set log append as real stores into the
    // thread's log region (they mostly hit the L1, as in real TL2,
    // but still cost issue slots and occasional misses).
    for (unsigned i = 0; i < words; ++i) {
        const Addr slot = logBase_ + (logSlot_ % (64 * 1024 / 8)) * 8;
        ++logSlot_;
        plainWrite(slot, 0xA0A0A0A0ULL, 8);
    }
}

std::uint64_t
Tl2Thread::sampleClock()
{
    // The read-version sample is the serialization point of read-only
    // transactions (GV1), so the stamp must be host-atomic with the
    // clock load: issue the access inline and stamp before the
    // latency charge yields.  Writers re-stamp at their clock bump.
    std::uint64_t clk = 0;
    MemResult r =
        m_.memsys().access(core_, AccessType::Load, g_.clockAddr, 8,
                           &clk, m_.scheduler().now());
    oracleStamp();
    charge(r.latency);
    work(25);  // setjmp register checkpoint
    return clk;
}

std::uint64_t
Tl2Thread::bumpClock()
{
    // GV1 clock order is commit order, so the successful CAS is the
    // serialization point: stamp before the latency charge can yield
    // to a later-bumping peer.
    for (;;) {
        const std::uint64_t c = plainRead(g_.clockAddr, 8);
        CasOutcome o = m_.memsys().cas(core_, g_.clockAddr, c, c + 2,
                                       8, m_.scheduler().now());
        if (o.success) {
            oracleStamp();
            charge(o.latency);
            return c + 2;
        }
        charge(o.latency);
    }
}

bool
Tl2Thread::lockWaitRound(Addr, unsigned tries)
{
    // TL2 owners drain on their own (stripe locks have no abort
    // handle), so the policy only shapes the wait or gives up the
    // attempt.
    return m_.cmPolicy().lockWaitRound(*this, tries);
}

void
Tl2Thread::beginTx()
{
    algo_.begin(*this);
}

std::uint64_t
Tl2Thread::txRead(Addr a, unsigned size)
{
    std::uint64_t v = 0;
    if (algo_.read(*this, a, size, v) != Tl2Status::Ok)
        throw TxAbort{AbortCause::Validation};
    return v;
}

void
Tl2Thread::txWrite(Addr a, std::uint64_t v, unsigned size)
{
    algo_.write(*this, a, v, size);
}

bool
Tl2Thread::commitTx()
{
    std::uint64_t wv = 0;
    const Tl2Status s = algo_.commit(*this, wv);
    if (s == Tl2Status::CommitLockBusy)
        throw TxAbort{AbortCause::CmSelf};  // the policy gave up
    if (s != Tl2Status::Ok)
        throw TxAbort{AbortCause::Validation};
    return true;
}

void
Tl2Thread::abortCleanup()
{
    sim_assert(!algo_.locksHeld(), "aborted with stripe locks held");
    algo_.abortCleanup();
}

} // namespace flextm
