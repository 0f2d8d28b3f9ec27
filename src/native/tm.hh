/**
 * @file
 * libflextm: the native (real-pthreads) software TM library.
 *
 * This is the CS-453 `tm.h`-shaped interface (SNIPPETS.md): a shared
 * memory region is created once, threads open transactions against
 * it, and every transactional access goes through
 * tm_read/tm_write.  A false return from tm_read/tm_write/tm_end
 * means the transaction aborted; the caller abandons the attempt
 * (without calling tm_end) and retries from tm_begin.
 *
 * Two backends:
 *
 *  - Backend::Tl2 - word-based TL2 (GV1 global version clock,
 *    per-stripe versioned write-locks) on C++11 atomics.  The
 *    algorithm core is runtime/tl2_algo.hh, the *same* code the
 *    cycle simulator's TL2 runtime executes; only the world
 *    (atomics vs simulated memory ops) differs.
 *  - Backend::GlobalLock - a single pthread mutex held from begin to
 *    end.  The correctness reference and the throughput baseline the
 *    grader compares against.
 *
 * Opacity: TL2's per-read lock/version sandwich means a doomed
 * transaction never observes an inconsistent snapshot - it returns
 * false from the offending tm_read instead.
 *
 * An abort is a plain false return all the way down: the shared TL2
 * core reports why an attempt failed by value, so no C++ exception
 * is thrown or caught on the abort path.  tm_stats() counts commits,
 * aborts by cause and back-off pauses per region.
 *
 * All functions are thread-safe.  A tx_t is only valid on the thread
 * that tm_begin'd it and only until the tm_end / failed access that
 * finishes it.  Passing a finished handle, or one begun on another
 * region, to tm_read/tm_write/tm_end/tm_alloc/tm_free is fatal: a
 * caller that ignores an abort must not get a commit.
 */

#ifndef FLEXTM_NATIVE_TM_HH
#define FLEXTM_NATIVE_TM_HH

#include <cstddef>
#include <cstdint>

namespace flextm::native
{

class AccessLog;

/** Opaque handle on a shared memory region. */
using shared_t = void *;
constexpr shared_t invalid_shared = nullptr;

/** Opaque handle on a transaction. */
using tx_t = std::uintptr_t;
constexpr tx_t invalid_tx = ~tx_t{0};

/** Result of tm_alloc. */
enum class Alloc
{
    success,  //!< segment allocated
    abort,    //!< the transaction must retry from tm_begin
    nomem,    //!< out of memory (transaction continues)
};

enum class Backend
{
    Tl2,
    GlobalLock,
};

/** A region's transaction counters, summed over every thread that
 *  ever began a transaction on it (tm_stats).  The abort causes are
 *  TL2's; the global-lock backend counts commits only. */
struct Stats
{
    std::uint64_t commits = 0;
    std::uint64_t readLocked = 0;        //!< tm_read: stripe locked
    std::uint64_t readTooNew = 0;        //!< tm_read: version > snapshot
    std::uint64_t readChanged = 0;       //!< tm_read: stripe moved mid-read
    std::uint64_t commitLockBusy = 0;    //!< tm_end: lock wait gave up
    std::uint64_t commitValidation = 0;  //!< tm_end: read set invalid
    /** cpu-relax pauses tm_begin spent backing off after aborts. */
    std::uint64_t backoffPauses = 0;

    std::uint64_t
    aborts() const
    {
        return readLocked + readTooNew + readChanged + commitLockBusy +
               commitValidation;
    }
};

/**
 * Create a TL2 shared region whose first segment has @p size bytes
 * and whose accesses are @p align-aligned (power of two; every
 * tm_read/tm_write size and address must be a multiple of it, or the
 * call dies).  The segment is zero-initialized.  Returns
 * invalid_shared on bad arguments or allocation failure.
 */
shared_t tm_create(std::size_t size, std::size_t align);

/** tm_create with an explicit backend. */
shared_t tm_create_with(std::size_t size, std::size_t align,
                        Backend backend);

/** Destroy a region (no transaction may be live).  Frees every
 *  segment, including tm_free'd ones (frees are deferred to here so
 *  a concurrent reader can never touch recycled memory). */
void tm_destroy(shared_t shared);

/** First word of the region's first (non-deallocatable) segment. */
void *tm_start(shared_t shared);

/** Size of the first segment, in bytes. */
std::size_t tm_size(shared_t shared);

/** Alignment of the region, in bytes. */
std::size_t tm_align(shared_t shared);

/**
 * Begin a transaction.  @p is_ro promises the transaction performs
 * no tm_write/tm_alloc/tm_free (read-only TL2 transactions commit
 * without locking); each of the three dies on a read-only handle.
 * Never blocks indefinitely; never fails.  After k consecutive
 * aborted attempts on this thread and region, it first spins a
 * random number of cpu-relax pauses in [0, 2^min(k, 10)) - a
 * bounded randomized back-off that keeps conflicting retries from
 * colliding again at once; a commit resets k.
 */
tx_t tm_begin(shared_t shared, bool is_ro);

/** Commit.  False means the transaction aborted and the caller must
 *  retry from tm_begin (the handle is dead either way). */
bool tm_end(shared_t shared, tx_t tx);

/** Read @p size bytes of shared memory at @p source into the private
 *  buffer @p target.  False = aborted, retry from tm_begin. */
bool tm_read(shared_t shared, tx_t tx, const void *source,
             std::size_t size, void *target);

/** Write @p size bytes of the private buffer @p source to shared
 *  memory at @p target.  False = aborted, retry from tm_begin. */
bool tm_write(shared_t shared, tx_t tx, const void *source,
              std::size_t size, void *target);

/** Allocate a fresh zeroed segment of @p size bytes (first word
 *  stored to *@p target on success). */
Alloc tm_alloc(shared_t shared, tx_t tx, std::size_t size,
               void **target);

/** Deallocate the segment starting at @p target (deferred to
 *  tm_destroy).  False = aborted. */
bool tm_free(shared_t shared, tx_t tx, void *target);

/**
 * The region's counters: commits, TL2 aborts by cause and back-off
 * pauses, summed over the per-thread counter blocks.  Safe to call
 * while transactions run (each block is read with relaxed atomic
 * loads, so a concurrent snapshot is approximate, a quiescent one
 * exact).
 */
Stats tm_stats(shared_t shared);

/**
 * Attach an access-log checker (native/access_log.hh): every
 * committed transaction's reads and writes are recorded with its
 * serialization stamp, and AccessLog::validate() later replays them
 * sequentially - the native twin of the simulator's serializability
 * oracle.  Pass nullptr to detach.  Only flip while no transaction
 * is live; the log must outlive the attachment.
 */
void tm_set_logging(shared_t shared, AccessLog *log);

} // namespace flextm::native

#endif // FLEXTM_NATIVE_TM_HH
