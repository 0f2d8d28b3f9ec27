#include "runtime/object_stm.hh"

#include "mem/memory_system.hh"
#include "runtime/conflict_manager.hh"

namespace flextm
{

ObjectStmGlobals::ObjectStmGlobals(Machine &m)
    : headerCount(1u << 16), tswOf(m.cores(), 0), karma(m.cores(), 0)
{
    headerBase =
        m.memory().allocate(std::size_t{headerCount} * 8, lineBytes);
}

Addr
ObjectStmGlobals::headerFor(Addr a) const
{
    const std::uint64_t line = lineNumber(a) * 2654435761ULL;
    return headerBase + (line & (headerCount - 1)) * 8;
}

ObjectStmThread::ObjectStmThread(Machine &m, ObjectStmGlobals &g,
                                 ThreadId tid, CoreId core)
    : TxThread(m, tid, core), g_(g),
      tswAddr_(m.memory().allocate(lineBytes, lineBytes))
{
}

class ObjectStmThread::HeaderOwner final : public CmEnemy
{
  public:
    HeaderOwner(ObjectStmThread &self, Addr header)
        : self_(self), header_(header)
    {
    }

    bool active() override { return isLocked(load()); }

    void
    abort() override
    {
        const std::uint64_t w = load();
        if (!isLocked(w))
            return;
        const Addr enemy_tsw = self_.g_.tswOf[lockOwner(w)];
        if (enemy_tsw != 0)
            self_.casWord(enemy_tsw, TswActive, TswAborted, 4);
        // The victim's cleanup releases the header; wait for it.
    }

    std::uint64_t
    karma() override
    {
        const std::uint64_t w = load();
        return isLocked(w) ? self_.g_.karma[lockOwner(w)] : 0;
    }

    bool
    irrevocable() override
    {
        const std::uint64_t w = load();
        return isLocked(w) &&
               self_.m_.progress().isIrrevocableCore(lockOwner(w));
    }

    CoreId
    core() const override
    {
        // Host-side peek: identification for the auditor/arbitration
        // must not perturb the timed memory traffic.
        std::uint64_t w = 0;
        self_.m_.memsys().peek(header_, &w, 8);
        return isLocked(w) ? lockOwner(w) : invalidCore;
    }

  private:
    /** Timed read of the header word. */
    std::uint64_t load() { return self_.plainRead(header_, 8); }

    ObjectStmThread &self_;
    const Addr header_;
};

void
ObjectStmThread::resolveOwner(Addr header)
{
    HeaderOwner enemy(*this, header);
    m_.cmPolicy().resolve(*this, g_.karma[core_], enemy);
}

} // namespace flextm
