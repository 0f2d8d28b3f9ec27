#include "runtime/conflict_manager.hh"

#include <algorithm>
#include <bit>

#include "mem/memory_system.hh"
#include "runtime/tx_thread.hh"
#include "sim/auditor.hh"
#include "sim/logging.hh"
#include "sim/progress.hh"

namespace flextm
{

const char *
cmPolicyName(CmPolicy p)
{
    switch (p) {
      case CmPolicy::Polka:
        return "Polka";
      case CmPolicy::Aggressive:
        return "Aggressive";
      case CmPolicy::Timid:
        return "Timid";
      case CmPolicy::TimestampGreedy:
        return "TimestampGreedy";
      case CmPolicy::RandomizedBackoff:
        return "RandomizedBackoff";
      case CmPolicy::SerialIrrevocableFirst:
        return "SerialIrrevocableFirst";
    }
    return "?";
}

CmPolicyBase::~CmPolicyBase() = default;

Counter &
CmPolicyBase::selfAborts(TxThread &t)
{
    return t.ctr_.cmSelfAborts;
}

Counter &
CmPolicyBase::enemyAborts(TxThread &t)
{
    return t.ctr_.cmEnemyAborts;
}

Counter &
CmPolicyBase::backoffs(TxThread &t)
{
    return t.ctr_.cmBackoffs;
}

Counter &
CmPolicyBase::irrevocableStalls(TxThread &t)
{
    return t.ctr_.cmIrrevocableStalls;
}

void
CmPolicyBase::noteConflict(TxThread &self, const CmEnemy &enemy)
{
    if (StateAuditor *a = self.machine().memsys().auditor())
        a->noteCmConflict(self.core(), enemy.core());
}

void
CmPolicyBase::killEnemy(TxThread &self, CmEnemy &enemy)
{
    // The policy's irrevocability check may sit on the far side of a
    // yield (karma() charges simulated time for the descriptor
    // read), and the token is only ever acquired at transaction
    // begin: an enemy that is irrevocable *now* grabbed the token in
    // such a window and must not be killed.  Re-checked through the
    // host-side peek (irrevocable() may charge cycles in lock-based
    // runtimes).  Skipping is safe - if the conflict is still real
    // it recurs, and the next resolve round sees the token and
    // stalls.
    const CoreId victim = enemy.core();
    if (victim != invalidCore &&
        self.machine().progress().isIrrevocableCore(victim))
        return;
    if (StateAuditor *a = self.machine().memsys().auditor()) {
        // In lock-based runtimes the owner may have changed since the
        // conflict was first observed (resolve loops yield between
        // protocol actions), so re-record the conflict against the
        // enemy as identified *now*, by the same peek as the kill
        // note.  I9's teeth are kills with no conflict path at all
        // and kills of the irrevocability-token holder.
        a->noteCmConflict(self.core(), victim);
        a->noteEnemyAbort(self.machine().scheduler().now(),
                          self.core(), victim);
    }
    enemy.abort();
    ++enemyAborts(self);
}

void
CmPolicyBase::stallRound(TxThread &self, unsigned interval)
{
    const unsigned s = interval < 8 ? interval : 8;
    const Cycles base = Cycles{16} << s;
    self.work(base / 2 + self.rng().nextInt(base));
    ++irrevocableStalls(self);
}

void
CmPolicyBase::backoffRound(TxThread &self, unsigned interval)
{
    const Cycles base = Cycles{16} << interval;
    self.work(base / 2 + self.rng().nextInt(base));
    ++backoffs(self);
}

void
CmPolicyBase::selfAbort(TxThread &self)
{
    ++selfAborts(self);
    throw TxAbort{AbortCause::CmSelf};
}

bool
CmPolicyBase::enemyContestable(TxThread &self, CmEnemy &enemy,
                               unsigned &interval)
{
    for (;; ++interval) {
        if (!enemy.active())
            return false;
        noteConflict(self, enemy);
        self.pollAbort();
        // The serial-irrevocable fallback overrides every policy: an
        // irrevocable enemy may not be aborted; stall (noticing our
        // own death via pollAbort above) until it drains.
        if (!enemy.irrevocable())
            return true;
        stallRound(self, interval);
    }
}

void
CmPolicyBase::karmaResolve(TxThread &self, std::uint64_t my_karma,
                           CmEnemy &enemy, bool aggressive)
{
    const unsigned max_patience =
        self.machine().config().progress.cmMaxPatience;
    for (unsigned interval = 0; enemyContestable(self, enemy, interval);
         ++interval) {
        if (aggressive) {
            killEnemy(self, enemy);
            return;
        }

        const std::uint64_t enemy_karma = enemy.karma();
        // Patience proportional to the priority deficit, capped;
        // always wait at least one interval so karma ties don't
        // degenerate into instant mutual kills.
        const std::uint64_t deficit =
            enemy_karma > my_karma ? enemy_karma - my_karma : 0;
        unsigned patience = max_patience;
        if (deficit < patience)
            patience = static_cast<unsigned>(deficit);
        if (patience == 0)
            patience = 1;

        if (interval >= patience) {
            killEnemy(self, enemy);
            return;
        }
        // Randomized exponential back-off interval.
        backoffRound(self, interval);
    }
}

void
CmPolicyBase::lazyCommitGate(TxThread &, std::uint64_t)
{
    // Committer wins: at CAS-Commit the committer sits at its
    // linearization point; the kills that follow are justified by
    // the CST bits the hardware recorded.
}

bool
CmPolicyBase::lockWaitRound(TxThread &self, unsigned round)
{
    // Historical TL2 owner wait: bounded patience, then yield the
    // attempt (the committing owner drains in bounded time, but a
    // parked owner must not wedge us).  The irrevocable committer
    // never gives up - it may not abort.
    if (round > 4 && !self.irrevocable())
        return false;
    self.work(16u << std::min(round, 8u));
    return true;
}

void
CmPolicyBase::mutexWaitRound(TxThread &self, unsigned round)
{
    // Historical CGL spin shape: linear-then-capped-exponential
    // randomized window.
    self.work(8 + self.rng().nextInt(8u << (round < 6 ? round : 6)));
}

void
CmPolicyBase::htmConflict(TxThread &)
{
    // Bounded HTM resolves requester-side in hardware: the
    // conflicting access aborts the local transaction, no charge.
    throw TxAbort{AbortCause::CmSelf};
}

void
CmPolicyBase::onAborted(TxThread &)
{
}

namespace
{

class PolkaPolicy : public CmPolicyBase
{
  public:
    PolkaPolicy() : CmPolicyBase(CmPolicy::Polka) {}

    void
    resolve(TxThread &self, std::uint64_t my_karma,
            CmEnemy &enemy) override
    {
        karmaResolve(self, my_karma, enemy, false);
    }
};

class AggressivePolicy : public CmPolicyBase
{
  public:
    AggressivePolicy() : CmPolicyBase(CmPolicy::Aggressive) {}

    void
    resolve(TxThread &self, std::uint64_t my_karma,
            CmEnemy &enemy) override
    {
        karmaResolve(self, my_karma, enemy, true);
    }
};

class TimidPolicy : public CmPolicyBase
{
  public:
    TimidPolicy() : CmPolicyBase(CmPolicy::Timid) {}

    void
    resolve(TxThread &self, std::uint64_t, CmEnemy &enemy) override
    {
        if (enemy.active()) {
            noteConflict(self, enemy);
            selfAbort(self);
        }
    }
};

/**
 * Oldest-transaction-wins on the first-attempt begin stamp.  The
 * stamp order is total (core id breaks ties) and a victim keeps its
 * stamp across retries, so arbitration is deadlock-free by
 * construction and the oldest transaction in any conflict cycle
 * always advances.
 */
class TimestampGreedyPolicy : public CmPolicyBase
{
  public:
    TimestampGreedyPolicy() : CmPolicyBase(CmPolicy::TimestampGreedy)
    {
    }

    void
    resolve(TxThread &self, std::uint64_t, CmEnemy &enemy) override
    {
        unsigned interval = 0;
        if (!enemyContestable(self, enemy, interval))
            return;
        // The token holder may not die and the enemy is not the
        // holder: take it down.  Otherwise the older stamp wins.
        ProgressManager &pm = self.machine().progress();
        if (self.irrevocable() ||
            pm.arbitrationStamp(self.core()) <=
                pm.arbitrationStamp(enemy.core())) {
            killEnemy(self, enemy);
            return;
        }
        selfAbort(self);
    }

    void
    lazyCommitGate(TxThread &self,
                   std::uint64_t active_enemies) override
    {
        // Kill only younger enemies: an older active enemy wins the
        // commit race - yield before any CST is consumed.
        ProgressManager &pm = self.machine().progress();
        if (self.irrevocable())
            return;
        const std::uint64_t mine = pm.arbitrationStamp(self.core());
        for (std::uint64_t m = active_enemies; m != 0; m &= m - 1) {
            const CoreId k = static_cast<CoreId>(
                std::countr_zero(m));
            if (pm.arbitrationStamp(k) < mine)
                selfAbort(self);
        }
    }
};

/**
 * Requester-abort only: seeded exponential back-off while the enemy
 * is in the way, then yield the attempt.  No enemy is ever killed
 * (except by the irrevocability-token holder, whose guarantee is
 * machine policy, not contention policy); forward progress rests on
 * the escalation threshold and the watchdog.
 */
class RandomizedBackoffPolicy : public CmPolicyBase
{
  public:
    RandomizedBackoffPolicy()
        : CmPolicyBase(CmPolicy::RandomizedBackoff)
    {
    }

    void
    resolve(TxThread &self, std::uint64_t, CmEnemy &enemy) override
    {
        const unsigned max_patience =
            self.machine().config().progress.cmMaxPatience;
        for (unsigned interval = 0;
             enemyContestable(self, enemy, interval); ++interval) {
            if (self.irrevocable()) {
                // The token holder may neither die nor stall
                // unboundedly behind a peer that is itself stalled
                // on our irrevocability.
                killEnemy(self, enemy);
                return;
            }
            if (interval >= max_patience)
                selfAbort(self);
            backoffRound(self, interval);
        }
    }

    void
    lazyCommitGate(TxThread &self,
                   std::uint64_t active_enemies) override
    {
        if (self.irrevocable())
            return;
        if (active_enemies != 0)
            selfAbort(self);
    }

    bool
    lockWaitRound(TxThread &self, unsigned round) override
    {
        if (round > 4 && !self.irrevocable()) {
            ++selfAborts(self);
            return false;
        }
        const Cycles base = Cycles{16} << std::min(round, 8u);
        self.work(base / 2 + self.rng().nextInt(base));
        ++backoffs(self);
        return true;
    }

    bool requesterAbortsOnly() const override { return true; }
};

/**
 * First conflict resolves like Polka; a transaction that aborted and
 * conflicts again escalates straight to the PR 2 serial-
 * irrevocability token and retries unkillable.
 */
class SerialIrrevocableFirstPolicy : public CmPolicyBase
{
  public:
    SerialIrrevocableFirstPolicy()
        : CmPolicyBase(CmPolicy::SerialIrrevocableFirst)
    {
    }

    void
    resolve(TxThread &self, std::uint64_t my_karma,
            CmEnemy &enemy) override
    {
        ProgressManager &pm = self.machine().progress();
        if (!self.irrevocable() &&
            pm.consecutiveAborts(self.tid()) >= 1 && enemy.active()) {
            noteConflict(self, enemy);
            pm.forceEscalate(self.tid());
            selfAbort(self);
        }
        karmaResolve(self, my_karma, enemy, false);
    }

    [[noreturn]] void
    htmConflict(TxThread &self) override
    {
        ProgressManager &pm = self.machine().progress();
        if (pm.consecutiveAborts(self.tid()) >= 1)
            pm.forceEscalate(self.tid());
        throw TxAbort{AbortCause::CmSelf};
    }

    bool
    lockWaitRound(TxThread &self, unsigned round) override
    {
        if (round > 4 && !self.irrevocable()) {
            self.machine().progress().forceEscalate(self.tid());
            return false;
        }
        self.work(16u << std::min(round, 8u));
        return true;
    }

    void
    onAborted(TxThread &self) override
    {
        // Runtimes whose conflicts surface only as kills or
        // validation failures (FlexTM-lazy victims, TL2): a repeat
        // abort is a repeat conflict - claim the token for the next
        // attempt.
        ProgressManager &pm = self.machine().progress();
        if (pm.consecutiveAborts(self.tid()) >= 2)
            pm.forceEscalate(self.tid());
    }
};

} // namespace

CmPolicyBase &
cmPolicyFor(CmPolicy kind)
{
    static PolkaPolicy polka;
    static AggressivePolicy aggressive;
    static TimidPolicy timid;
    static TimestampGreedyPolicy timestamp;
    static RandomizedBackoffPolicy randomized;
    static SerialIrrevocableFirstPolicy serial;
    switch (kind) {
      case CmPolicy::Polka:
        return polka;
      case CmPolicy::Aggressive:
        return aggressive;
      case CmPolicy::Timid:
        return timid;
      case CmPolicy::TimestampGreedy:
        return timestamp;
      case CmPolicy::RandomizedBackoff:
        return randomized;
      case CmPolicy::SerialIrrevocableFirst:
        return serial;
    }
    panic("unknown CmPolicy %u", static_cast<unsigned>(kind));
}

} // namespace flextm
