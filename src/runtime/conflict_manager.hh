/**
 * @file
 * Pluggable conflict management (Section 3.6 / 7.2).
 *
 * FlexTM deliberately leaves conflict management to software: the
 * hardware only reports conflicts (response messages in eager mode,
 * CST bits in lazy mode).  The paper evaluates the Polka policy of
 * Scherer & Scott [32] throughout and calls out the study of
 * management-policy interplay as future work; this file is that
 * study's substrate.  Every runtime routes its arbitration decisions
 * through the machine-wide CmPolicyBase object (selected by
 * MachineConfig::cmPolicy) via the CmEnemy
 * contract, so policies compose with all seven runtimes:
 *
 *  - resolve()        arbitration against one CmEnemy (FlexTM eager
 *                     responses, RSTM/RTM-F locked headers, scripted
 *                     conflicts in tests);
 *  - lazyCommitGate() the FlexTM-lazy commit window, before the
 *                     committer copies-and-clears its CSTs and kills
 *                     the marked enemies;
 *  - lockWaitRound()  one round of waiting on TL2's commit locks;
 *  - mutexWaitRound() one round of CGL's lock spin (CGL cannot
 *                     abort, so only the back-off shape is policy);
 *  - htmConflict()    a bounded-HTM (HyTM) conflict report;
 *  - onAborted()      post-abort note so escalating policies see
 *                     victims in runtimes that only self-abort.
 *
 * The Polka implementations of all of these reproduce the historical
 * behaviour bit-identically (the determinism goldens are recorded
 * against them).
 */

#ifndef FLEXTM_RUNTIME_CONFLICT_MANAGER_HH
#define FLEXTM_RUNTIME_CONFLICT_MANAGER_HH

#include <cstdint>

#include "sim/config.hh"
#include "sim/types.hh"

namespace flextm
{

class TxThread;
struct Counter;

/**
 * The enemy transaction of one conflict, as a policy sees it.  Each
 * runtime implements it once for its kind of enemy handle (FlexTM's
 * per-core status word, the object STMs' locked header) and passes
 * an instance to CmPolicyBase::resolve.  The attacker's own abort
 * poll between back-off rounds is TxThread::pollAbort.
 */
class CmEnemy
{
  public:
    /** Is the enemy transaction still in the way?  (Charges the cost
     *  of inspecting its status.) */
    virtual bool active() = 0;
    /** Forcibly abort the enemy (CAS on its status word). */
    virtual void abort() = 0;
    /** Enemy's current priority. */
    virtual std::uint64_t karma() = 0;
    /**
     * Is the enemy running under the serial-irrevocable fallback?
     * An irrevocable enemy is never aborted, whatever the policy:
     * the attacker stalls (polling its own abort) until the enemy
     * drains.
     */
    virtual bool irrevocable() = 0;
    /**
     * Core the enemy transaction runs on (invalidCore once it is
     * gone).  A host-side peek (no simulated cycles): timestamp
     * arbitration and the I9 progressiveness audit consult it
     * between protocol actions.
     */
    virtual CoreId core() const = 0;

  protected:
    ~CmEnemy() = default;
};

const char *cmPolicyName(CmPolicy p);

/**
 * One contention-management policy.  Policies are stateless (all
 * per-thread state lives in TxThread / ProgressManager), so each is
 * a process-wide singleton shared by concurrently running machines.
 */
class CmPolicyBase
{
  public:
    explicit CmPolicyBase(CmPolicy kind) : kind_(kind) {}
    virtual ~CmPolicyBase();

    CmPolicyBase(const CmPolicyBase &) = delete;
    CmPolicyBase &operator=(const CmPolicyBase &) = delete;

    CmPolicy kind() const { return kind_; }
    const char *name() const { return cmPolicyName(kind_); }

    /**
     * Resolve one conflict.  Returns when the enemy has committed,
     * aborted, or been aborted by us; throws TxAbort if this
     * transaction should die instead (requester-abort policies, or
     * TxThread::pollAbort noticing we were killed while waiting).
     *
     * @param self     the attacking thread (for back-off timing)
     * @param my_karma attacker's priority
     */
    virtual void resolve(TxThread &self, std::uint64_t my_karma,
                         CmEnemy &enemy) = 0;

    /**
     * FlexTM-lazy commit window: called before the committer
     * copies-and-clears its CSTs and kills the marked enemies, i.e.
     * while throwing TxAbort still leaves every CST intact.  The
     * default is committer-wins (a no-op): at CAS-Commit the
     * committer sits at its linearization point.  Requester-abort
     * and timestamp policies yield here instead.
     *
     * @param active_enemies bitmask of the CST (W-R | W-W) enemies
     *        whose status word is still Active (host-side peeks)
     */
    virtual void lazyCommitGate(TxThread &self,
                                std::uint64_t active_enemies);

    /**
     * One round of waiting on a TL2 commit-lock owner (the caller
     * re-probes the lock between rounds).  @p round starts at 1.
     * Returns whether to keep waiting; false gives up the attempt
     * (the caller releases its held locks and aborts with CmSelf).
     * Never throws.
     */
    [[nodiscard]] virtual bool lockWaitRound(TxThread &self,
                                             unsigned round);

    /**
     * One round of CGL's global-lock spin.  CGL critical sections
     * cannot abort, so implementations must never throw - only the
     * back-off shape is policy.  @p round starts at 0.
     */
    virtual void mutexWaitRound(TxThread &self, unsigned round);

    /**
     * A bounded-HTM (HyTM) conflict report: hardware transactions
     * resolve conflicts requester-side, so the default self-aborts
     * with no extra charge.  Escalating policies may claim the token
     * for the retry first.  Always throws TxAbort.
     */
    [[noreturn]] virtual void htmConflict(TxThread &self);

    /**
     * Post-abort note from TxThread::txn (host-side, after
     * ProgressManager::txnAborted).  Lets escalating policies see
     * victims in runtimes whose conflicts surface only as
     * self-aborts (TL2, HyTM) or commit-window kills (FlexTM-lazy).
     */
    virtual void onAborted(TxThread &self);

    /**
     * True when the policy never kills enemies (requester-abort
     * only); the FlexTM-lazy committer then consults
     * lazyCommitGate() instead of unconditionally killing.
     */
    virtual bool requesterAbortsOnly() const { return false; }

  protected:
    /** @name Shared helpers (TxThread grants friendship to the base
     *  class only, so derived policies reach counters through
     *  these). */
    /// @{
    static Counter &selfAborts(TxThread &t);
    static Counter &enemyAborts(TxThread &t);
    static Counter &backoffs(TxThread &t);
    static Counter &irrevocableStalls(TxThread &t);

    /** Note the observed conflict with the auditor (I9): host-side,
     *  zero simulated cycles; no-op without auditor. */
    static void noteConflict(TxThread &self, const CmEnemy &enemy);

    /** Abort the enemy: I9 note, CmEnemy::abort(), counter. */
    static void killEnemy(TxThread &self, CmEnemy &enemy);

    /** One randomized stall interval behind an irrevocable enemy
     *  (shift capped at 8), bumping cm.irrevocable_stalls. */
    static void stallRound(TxThread &self, unsigned interval);

    /** One randomized exponential back-off interval, bumping
     *  cm.backoffs. */
    static void backoffRound(TxThread &self, unsigned interval);

    /** Requester-side abort: counter + throw TxAbort{CmSelf}. */
    [[noreturn]] static void selfAbort(TxThread &self);

    /**
     * The prologue of every arbitration round: false once the enemy
     * has gone.  Otherwise notes the conflict (I9), polls our own
     * abort, and while the enemy is irrevocable stalls a round
     * (bumping @p interval) and starts over; true means the enemy
     * is active and revocable - the policy's turn to arbitrate.
     */
    static bool enemyContestable(TxThread &self, CmEnemy &enemy,
                                 unsigned &interval);

    /** The classic karma loop shared by Polka, Aggressive and
     *  SerialIrrevocableFirst's first-conflict path. */
    static void karmaResolve(TxThread &self, std::uint64_t my_karma,
                             CmEnemy &enemy, bool aggressive);
    /// @}

  private:
    const CmPolicy kind_;
};

/** The process-wide singleton for @p kind. */
CmPolicyBase &cmPolicyFor(CmPolicy kind);

} // namespace flextm

#endif // FLEXTM_RUNTIME_CONFLICT_MANAGER_HH
