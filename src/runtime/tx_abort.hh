/**
 * @file
 * Transaction abort signalling for the simulated runtimes.
 *
 * Simulated runtime internals throw TxAbort when the current attempt
 * must restart; the retry loop, TxThread::txn, catches it and maps
 * the cause onto its own accounting.  Neither the shared TL2 core
 * (tl2_algo.hh) nor the native libflextm library throws or catches
 * it: the core reports a failed attempt by value (Tl2Status), and
 * tm_read/tm_end return false.
 */

#ifndef FLEXTM_RUNTIME_TX_ABORT_HH
#define FLEXTM_RUNTIME_TX_ABORT_HH

namespace flextm
{

/**
 * Why a transaction attempt died.  Tagged onto TxAbort at the throw
 * site; the simulator's txn() folds it into the machine-wide
 * aborts.byCause.* and per-thread counters so starvation and its
 * mechanism are visible in every run, not just the bench.
 */
enum class AbortCause : unsigned
{
    Unknown = 0,      //!< untagged legacy site
    CmSelf,           //!< contention manager chose requester-abort
    EnemyKill,        //!< an enemy CASed our status word
    Validation,       //!< read-set / header validation failed
    Capacity,         //!< bounded-HTM footprint overflow
    Fault,            //!< injected fault (forced abort, ctx switch)
    IrrevocableDefer, //!< commit deferred to the token holder
};

constexpr unsigned kNumAbortCauses =
    static_cast<unsigned>(AbortCause::IrrevocableDefer) + 1;

inline const char *
abortCauseName(AbortCause c)
{
    switch (c) {
      case AbortCause::Unknown:
        return "unknown";
      case AbortCause::CmSelf:
        return "cm_self";
      case AbortCause::EnemyKill:
        return "enemy_kill";
      case AbortCause::Validation:
        return "validation";
      case AbortCause::Capacity:
        return "capacity";
      case AbortCause::Fault:
        return "fault";
      case AbortCause::IrrevocableDefer:
        return "irrevocable_defer";
    }
    return "?";
}

/** Thrown by runtime internals to restart the current transaction. */
struct TxAbort
{
    AbortCause cause = AbortCause::Unknown;
};

/** Thrown by abortNested() to unwind one closed-nesting level. */
struct NestedAbort
{
};

} // namespace flextm

#endif // FLEXTM_RUNTIME_TX_ABORT_HH
