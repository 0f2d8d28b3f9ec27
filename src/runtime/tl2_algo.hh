/**
 * @file
 * World-independent TL2 (GV1) algorithm core.
 *
 * Classic TL2 (Dice, Shalev & Shavit): a global version clock,
 * per-stripe versioned write-locks, invisible readers validated
 * against the clock, lazy versioning in a redo log, and a commit
 * protocol of address-ordered lock acquisition, clock bump, read-set
 * validation, write-back, and versioned release.
 *
 * The algorithm logic lives here exactly once and runs in two worlds:
 *
 *  - the cycle simulator (runtime/tl2_runtime.cc), where every
 *    metadata access is a simulated memory operation with real
 *    coherence cost, the clock bump is a simulated CAS, and waiting
 *    on a stripe lock is one contention-manager round per spin; and
 *  - the native libflextm library (native/), where locks are
 *    std::atomic words, the clock is a fetch_add, and waiting is a
 *    bounded spin/yield.
 *
 * The split is mechanical: Tl2Algo owns the transaction-private state
 * (read set, redo-log write set, held locks, the read version) and
 * the control flow; every effectful step goes through the World
 * passed into each method.  A World provides:
 *
 *     uint64_t sampleClock();            // GV1 read-version sample
 *     uint64_t bumpClock();              // returns the new wv
 *     LockH    lockFor(AddrT a);
 *     uint64_t loadLock(LockH lock);
 *     uint64_t loadData(AddrT a, unsigned size);
 *     bool     casLock(LockH, uint64_t expected, uint64_t desired);
 *     void     storeLock(LockH, uint64_t word);
 *     void     writeData(AddrT a, uint64_t v, unsigned size);
 *     uint64_t myLockWord();             // tl2MakeLockWord(self)
 *     bool     ownsLock(uint64_t word);  // locked word is mine
 *     bool     lockWaitRound(LockH, unsigned tries);  // keep waiting?
 *     // bookkeeping-cost hooks (no-ops natively):
 *     void onBegin(); void onReadIssued(); void onWriteSetHit();
 *     void onReadLogged(); void onWriteLogged();
 *
 * Aborts have one protocol in both worlds: read() and commit()
 * return a Tl2Status naming why the attempt failed, with every stripe
 * lock already released, and lockWaitRound() returns false when the
 * world gives up waiting (natively a bounded spin, in the simulator
 * the contention manager's verdict).  Neither the core nor any World
 * hook throws.  The simulator's Tl2Thread alone turns a failed status
 * into TxAbort for TxThread::txn's retry loop; the native library
 * returns false from tm_read/tm_end.
 *
 * The simulator's World is TxThread-backed and must stay
 * bit-identical to the pre-split monolithic runtime: the order of
 * loads, CASes, charges, and oracle stamps in this file is the
 * contract, frozen by the determinism goldens and the perf-matrix
 * identity check.  Do not reorder effectful calls.
 */

#ifndef FLEXTM_RUNTIME_TL2_ALGO_HH
#define FLEXTM_RUNTIME_TL2_ALGO_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/flat_map.hh"

namespace flextm
{

/** @name TL2 lock-word encoding (shared by both worlds)
 *  Even values are versions; odd values are lock words carrying the
 *  owner id in the upper bits. */
/// @{
inline bool
tl2IsLocked(std::uint64_t word)
{
    return (word & 1) != 0;
}

inline std::uint64_t
tl2LockOwner(std::uint64_t word)
{
    return word >> 1;
}

inline std::uint64_t
tl2MakeLockWord(std::uint64_t owner)
{
    return (owner << 1) | 1;
}
/// @}

/** @name TL2 stripe map (shared by both worlds)
 *  2^16 lock words; an address's 8-byte granule picks its stripe by
 *  Fibonacci hashing.  native_equiv_test relies on the two worlds
 *  mapping every address to the same stripe. */
/// @{
constexpr std::size_t kTl2Stripes = std::size_t{1} << 16;

inline std::size_t
tl2StripeFor(std::uint64_t a)
{
    return ((a >> 3) * 2654435761ULL) & (kTl2Stripes - 1);
}
/// @}

/** Outcome of a TL2 read or commit: Ok, or why the attempt failed. */
enum class Tl2Status : unsigned
{
    Ok = 0,
    ReadLocked,        //!< read: the stripe is locked by a committer
    ReadTooNew,        //!< read: stripe version newer than rv
    ReadChanged,       //!< read: the stripe changed during the read
    CommitLockBusy,    //!< commit: the stripe-lock wait gave up
    CommitValidation,  //!< commit: read-set validation failed
};

constexpr unsigned kNumTl2Statuses =
    static_cast<unsigned>(Tl2Status::CommitValidation) + 1;

/**
 * Transaction-private TL2 state and protocol.  @p AddrT is the
 * world's data-address type (simulated Addr, or uintptr_t natively);
 * @p LockH names a stripe lock (the lock word's simulated address, or
 * a std::atomic pointer).  Both must be totally ordered (commit
 * acquires locks in LockH order for deadlock freedom).
 */
template <typename AddrT, typename LockH>
class Tl2Algo
{
  public:
    struct WsEntry
    {
        std::uint64_t value;
        unsigned size;
    };

    /**
     * Start an attempt: flash the sets, sample the read version.
     *
     * @p declaredReadOnly engages classic TL2's read-only fast path:
     * the caller promises no write() this attempt, so reads skip both
     * the write-set probe and read-set logging entirely - the
     * per-read lock/version sandwich against rv is already a full
     * validation, and commit() has nothing left to check.  The caller
     * must enforce the promise (the native library rejects tm_write
     * on a read-only handle); the simulator's txn() API has no such
     * hint and always passes false, keeping its frozen behaviour.
     */
    template <typename World>
    void
    begin(World &w, bool declaredReadOnly = false)
    {
        writeSet_.clear();
        readSet_.clear();
        held_.clear();
        wsFilter_ = 0;
        declaredRo_ = declaredReadOnly;
        w.onBegin();
        // The read-version sample is the serialization point of
        // read-only transactions (GV1); the world stamps it at the
        // linearizing load.  Writers re-stamp at their clock bump.
        rv_ = w.sampleClock();
    }

    /** Read @p size bytes at @p a into @p v.  A failed status means
     *  the attempt is dead (no locks are held during reads). */
    template <typename World>
    [[nodiscard]] Tl2Status
    read(World &w, AddrT a, unsigned size, std::uint64_t &v)
    {
        w.onReadIssued();

        // Declared-read-only fast path: no write set to probe, and
        // the sandwich below is the whole validation story, so
        // nothing needs logging.
        if (declaredRo_) {
            const LockH lock = w.lockFor(a);
            const std::uint64_t l1 = w.loadLock(lock);
            if (const Tl2Status s = checkSnapshot(l1); s != Tl2Status::Ok)
                return s;
            v = w.loadData(a, size);
            if (w.loadLock(lock) != l1)
                return Tl2Status::ReadChanged;
            return Tl2Status::Ok;
        }

        // Write-set lookup (Bloom filter + log probe on a hit).
        const std::uint64_t fbit = std::uint64_t{1}
                                   << ((static_cast<std::uint64_t>(a) >> 3) & 63);
        if ((wsFilter_ & fbit) != 0) {
            auto it = writeSet_.find(a);
            if (it != writeSet_.end()) {
                w.onWriteSetHit();
                v = it->second.value;
                return Tl2Status::Ok;
            }
        }

        const LockH lock = w.lockFor(a);
        const std::uint64_t l1 = w.loadLock(lock);
        if (const Tl2Status s = checkSnapshot(l1); s != Tl2Status::Ok)
            return s;

        v = w.loadData(a, size);

        const std::uint64_t l2 = w.loadLock(lock);
        if (l2 != l1)
            return Tl2Status::ReadChanged;

        readSet_.emplace_back(lock, l1);
        w.onReadLogged();
        return Tl2Status::Ok;
    }

    template <typename World>
    void
    write(World &w, AddrT a, std::uint64_t v, unsigned size)
    {
        writeSet_[a] = WsEntry{v, size};
        wsFilter_ |= std::uint64_t{1}
                     << ((static_cast<std::uint64_t>(a) >> 3) & 63);
        w.onWriteLogged();
    }

    /**
     * Commit protocol.  On Ok, @p wv holds the write version (0 for a
     * read-only transaction, which commits at its rv without further
     * work).  A failed status (lock wait given up, read-set
     * validation failed) comes back with every stripe lock released
     * and its old word restored.
     */
    template <typename World>
    [[nodiscard]] Tl2Status
    commit(World &w, std::uint64_t &wv)
    {
        // Read-only transactions commit without further work (their
        // per-read validations against rv suffice).
        wv = 0;
        if (writeSet_.empty())
            return Tl2Status::Ok;

        // Sort the stripe locks into lock order (deadlock freedom)
        // and the redo log into address order (write-back), both
        // before the first lock is taken.
        std::vector<LockH> &locks = lockBuf_;
        std::vector<std::pair<AddrT, WsEntry>> &redo = redoBuf_;
        locks.clear();
        redo.clear();
        for (const auto &[a, e] : writeSet_) {
            locks.push_back(w.lockFor(a));
            redo.emplace_back(a, e);
        }
        if (locks.size() > 1) {
            std::sort(locks.begin(), locks.end());
            locks.erase(std::unique(locks.begin(), locks.end()),
                        locks.end());
            std::sort(redo.begin(), redo.end(),
                      [](const auto &x, const auto &y) {
                          return x.first < y.first;
                      });
        }

        for (LockH lock : locks) {
            unsigned tries = 0;
            for (;;) {
                const std::uint64_t cur = w.loadLock(lock);
                if (!tl2IsLocked(cur)) {
                    if (w.casLock(lock, cur, w.myLockWord())) {
                        held_.emplace_back(lock, cur);
                        break;
                    }
                } else if (w.ownsLock(cur)) {
                    break;  // already ours (aliasing stripes)
                }
                // One world-shaped wait round (a contention-manager
                // round in the simulator, a bounded spin natively).
                // Giving up must first release the stripe locks
                // acquired so far.
                if (!w.lockWaitRound(lock, ++tries)) {
                    releaseHeld(w, true, 0);
                    return Tl2Status::CommitLockBusy;
                }
            }
        }

        // Bump the global clock.  GV1 clock order is commit order;
        // the world stamps at the successful bump.
        wv = w.bumpClock();

        // Validate the read set unless nothing moved under us.
        if (wv != rv_ + 2) {
            for (const auto &[lock, ver] : readSet_) {
                std::uint64_t cur = w.loadLock(lock);
                if (tl2IsLocked(cur)) {
                    if (!w.ownsLock(cur)) {
                        releaseHeld(w, true, 0);
                        return Tl2Status::CommitValidation;
                    }
                    // Locked by us: validate against the pre-lock
                    // word (the version the stripe had when we
                    // acquired it).
                    for (const auto &[haddr, old] : held_) {
                        if (haddr == lock) {
                            cur = old;
                            break;
                        }
                    }
                }
                if (tl2IsLocked(cur) || cur != ver) {
                    releaseHeld(w, true, 0);
                    return Tl2Status::CommitValidation;
                }
            }
        }

        // Write back the redo log in address order and release the
        // stripes with the new version.
        for (const auto &[a, e] : redo)
            w.writeData(a, e.value, e.size);
        releaseHeld(w, false, wv);
        return Tl2Status::Ok;
    }

    /** Post-abort flash.  Never runs with stripe locks held: every
     *  failed commit releases them first (callers assert via
     *  locksHeld()). */
    void
    abortCleanup()
    {
        writeSet_.clear();
        readSet_.clear();
        wsFilter_ = 0;
    }

    bool readOnly() const { return writeSet_.empty(); }
    bool locksHeld() const { return !held_.empty(); }
    std::uint64_t readVersion() const { return rv_; }

  private:
    /** The pre-read half of the lock/version sandwich: the stripe's
     *  first lock word @p l1 must be an unlocked version <= rv. */
    Tl2Status
    checkSnapshot(std::uint64_t l1) const
    {
        if (tl2IsLocked(l1))
            return Tl2Status::ReadLocked;
        if (l1 > rv_)
            return Tl2Status::ReadTooNew;
        return Tl2Status::Ok;
    }

    template <typename World>
    void
    releaseHeld(World &w, bool restore_old, std::uint64_t wv)
    {
        for (const auto &[lock, old] : held_)
            w.storeLock(lock, restore_old ? old : wv);
        held_.clear();
    }

    std::uint64_t rv_ = 0;  //!< read version at begin
    bool declaredRo_ = false;  //!< read-only fast path engaged

    /** Redo log, keyed by address. */
    FlatMap<AddrT, WsEntry> writeSet_;
    std::uint64_t wsFilter_ = 0;  //!< cheap per-txn Bloom filter

    /** Read set: (stripe lock, observed version). */
    std::vector<std::pair<LockH, std::uint64_t>> readSet_;

    /** Locks held during commit: (stripe lock, pre-lock word). */
    std::vector<std::pair<LockH, std::uint64_t>> held_;

    /** @name Commit scratch
     *  The stripe locks in lock order and the redo log in address
     *  order.  Members, not locals, so a warmed-up thread commits
     *  without a heap allocation. */
    /// @{
    std::vector<LockH> lockBuf_;
    std::vector<std::pair<AddrT, WsEntry>> redoBuf_;
    /// @}
};

} // namespace flextm

#endif // FLEXTM_RUNTIME_TL2_ALGO_HH
