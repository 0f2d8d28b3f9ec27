#include "native/tm.hh"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "native/access_log.hh"
#include "runtime/tl2_algo.hh"

namespace flextm::native
{

namespace
{

[[noreturn]] void
die(const char *msg)
{
    std::fprintf(stderr, "libflextm: fatal: %s\n", msg);
    std::abort();
}

/**
 * Commit-time stripe-lock patience: one "round" per spin iteration
 * of the shared core.  TL2 writeback sections are a handful of
 * stores, so a holder drains in nanoseconds unless descheduled -
 * yield periodically, and requester-abort only after a long
 * oversubscription-scale wait (the retry loop re-runs the
 * transaction, so giving up is safe, just wasted work).
 */
constexpr unsigned kYieldEvery = 64;
constexpr unsigned kMaxWaitRounds = 1u << 14;

/**
 * Post-abort back-off: after k consecutive aborted attempts, the next
 * tm_begin spins a uniform random number of pauses in
 * [0, 2^min(k, kBackoffCap)), at most ~22 us (an x86 `pause` took
 * ~21 ns on a 4-vCPU Xeon VM).  Retrying at once lets the same
 * conflict recur; the randomized wait spreads the retries out.
 */
constexpr unsigned kBackoffCap = 10;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/** xorshift64: the back-off's per-slot random stream. */
std::uint64_t
nextRandom(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

/** Unique nonzero id per OS thread: the stripe lock-word owner. */
std::uint64_t
selfId()
{
    static std::atomic<std::uint64_t> next{1};
    thread_local const std::uint64_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

/** @name Tear-free shared-data access
 *
 * Committed writers store data while racing readers load it; the
 * algorithm discards torn reads via the lock-word sandwich, but the
 * accesses themselves must be data-race-free for the language (and
 * ThreadSanitizer).  Acquire on the data load keeps it between the
 * two lock loads (l1 <= data <= l2); release on the store keeps the
 * writeback before the versioned lock release.  Both are free on
 * x86. */
/// @{
std::uint64_t
atomicLoadData(std::uintptr_t a, unsigned size)
{
    switch (size) {
      case 1:
        return __atomic_load_n(reinterpret_cast<std::uint8_t *>(a),
                               __ATOMIC_ACQUIRE);
      case 2:
        return __atomic_load_n(reinterpret_cast<std::uint16_t *>(a),
                               __ATOMIC_ACQUIRE);
      case 4:
        return __atomic_load_n(reinterpret_cast<std::uint32_t *>(a),
                               __ATOMIC_ACQUIRE);
      case 8:
        return __atomic_load_n(reinterpret_cast<std::uint64_t *>(a),
                               __ATOMIC_ACQUIRE);
      default:
        die("unsupported access chunk size");
    }
}

void
atomicStoreData(std::uintptr_t a, std::uint64_t v, unsigned size)
{
    switch (size) {
      case 1:
        __atomic_store_n(reinterpret_cast<std::uint8_t *>(a),
                         static_cast<std::uint8_t>(v),
                         __ATOMIC_RELEASE);
        return;
      case 2:
        __atomic_store_n(reinterpret_cast<std::uint16_t *>(a),
                         static_cast<std::uint16_t>(v),
                         __ATOMIC_RELEASE);
        return;
      case 4:
        __atomic_store_n(reinterpret_cast<std::uint32_t *>(a),
                         static_cast<std::uint32_t>(v),
                         __ATOMIC_RELEASE);
        return;
      case 8:
        __atomic_store_n(reinterpret_cast<std::uint64_t *>(a), v,
                         __ATOMIC_RELEASE);
        return;
      default:
        die("unsupported access chunk size");
    }
}
/// @}

struct Region;

/** The native World driving the shared TL2 core (tl2_algo.hh). */
struct NativeWorld
{
    Region &r;

    std::uint64_t sampleClock();
    std::uint64_t bumpClock();
    std::atomic<std::uint64_t> *lockFor(std::uintptr_t a);
    std::uint64_t
    loadLock(std::atomic<std::uint64_t> *lock)
    {
        return lock->load(std::memory_order_acquire);
    }
    std::uint64_t
    loadData(std::uintptr_t a, unsigned size)
    {
        return atomicLoadData(a, size);
    }
    bool
    casLock(std::atomic<std::uint64_t> *lock, std::uint64_t expected,
            std::uint64_t desired)
    {
        return lock->compare_exchange_strong(
            expected, desired, std::memory_order_acq_rel,
            std::memory_order_acquire);
    }
    void
    storeLock(std::atomic<std::uint64_t> *lock, std::uint64_t word)
    {
        lock->store(word, std::memory_order_release);
    }
    void
    writeData(std::uintptr_t a, std::uint64_t v, unsigned size)
    {
        atomicStoreData(a, v, size);
    }
    std::uint64_t myLockWord() const { return tl2MakeLockWord(selfId()); }
    bool
    ownsLock(std::uint64_t word) const
    {
        return tl2LockOwner(word) == selfId();
    }
    bool
    lockWaitRound(std::atomic<std::uint64_t> *, unsigned tries)
    {
        if (tries >= kMaxWaitRounds)
            return false;
        if (tries % kYieldEvery == 0)
            std::this_thread::yield();
        return true;
    }
    // Bookkeeping-cost hooks are simulator-only.
    void onBegin() {}
    void onReadIssued() {}
    void onWriteSetHit() {}
    void onReadLogged() {}
    void onWriteLogged() {}
};

/** One thread's counters in one region (tm_stats).  Only the owning
 *  thread writes them, so a relaxed load + store suffices; the
 *  padding keeps each thread's writes on its own cache line. */
struct alignas(64) Counters
{
    /** Indexed by Tl2Status: Ok counts commits, the rest aborts. */
    std::atomic<std::uint64_t> outcomes[kNumTl2Statuses]{};
    std::atomic<std::uint64_t> backoffPauses{0};
};

void
bump(std::atomic<std::uint64_t> &c, std::uint64_t n = 1)
{
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

/** One transaction attempt's state, cached per (thread, region). */
struct NativeTx
{
    Region *region = nullptr;
    /** The bound region's serial: the slot's cache key. */
    std::uint64_t serial = 0;
    /** This thread's block in the bound region (owned by it). */
    Counters *counters = nullptr;
    bool readOnly = false;
    bool live = false;
    /** Consecutive aborted attempts since the last commit. */
    unsigned abortStreak = 0;
    std::uint64_t rng = 0;  //!< back-off stream (nonzero)
    Tl2Algo<std::uintptr_t, std::atomic<std::uint64_t> *> algo;
    std::vector<AccessLog::Op> logOps;
};

/** The GV1 clock on a cache line of its own: every writer commit
 *  bumps it, and a bump must not invalidate the line that every
 *  tm_read loads (the simulator's twin is Tl2Globals::clockAddr). */
struct alignas(64) ClockLine
{
    std::atomic<std::uint64_t> value{0};
};
static_assert(sizeof(ClockLine) == 64, "the clock must fill its line");

/**
 * A shared memory region.  Layout is part of the TL2 fast path: the
 * read-mostly fields, among them all that tm_begin/tm_read/tm_write
 * load, fill the first cache line (only tm_create and tm_set_logging
 * write them), the clock sits alone on the next, and the members
 * that only the global-lock backend, tm_alloc or tm_stats touch come
 * after it.
 */
struct alignas(64) Region
{
    /** Unique per region for the process lifetime: a new region may
     *  reuse a destroyed one's address, never its serial. */
    std::uint64_t serial = 0;
    Backend backend;
    std::size_t align;
    std::size_t chunk;  //!< min(align, 8): one Tl2Algo word
    void *start = nullptr;
    std::size_t firstBytes = 0;
    /** Stripe lock words (TL2). */
    std::unique_ptr<std::atomic<std::uint64_t>[]> locks;
    std::atomic<AccessLog *> log{nullptr};

    /** GV1 clock (TL2). */
    ClockLine clock;

    /** The single global lock (GlobalLock backend). */
    std::mutex gl;
    /** Commit ticket, taken under gl: the GL serialization stamp. */
    std::uint64_t glTicket = 0;

    /** All segments (first + tm_alloc'd + tm_free'd graveyard); a
     *  freed segment's memory is only recycled at tm_destroy, so no
     *  concurrent reader can ever touch reused memory. */
    std::mutex segLock;
    std::vector<void *> segments;

    /** One counter block per thread that began a transaction here,
     *  keyed by selfId(); freed with the region. */
    std::mutex countersLock;
    std::vector<std::pair<std::uint64_t, std::unique_ptr<Counters>>>
        counters;

    /** The calling thread's counter block (created on first use). */
    Counters &
    countersForSelf()
    {
        std::lock_guard<std::mutex> g(countersLock);
        for (auto &[owner, c] : counters) {
            if (owner == selfId())
                return *c;
        }
        counters.emplace_back(selfId(), std::make_unique<Counters>());
        return *counters.back().second;
    }
};
static_assert(offsetof(Region, clock) == 64,
              "the per-call fields must fit the first line");

std::uint64_t
NativeWorld::sampleClock()
{
    return r.clock.value.load(std::memory_order_acquire);
}

std::uint64_t
NativeWorld::bumpClock()
{
    return r.clock.value.fetch_add(2, std::memory_order_acq_rel) + 2;
}

std::atomic<std::uint64_t> *
NativeWorld::lockFor(std::uintptr_t a)
{
    return &r.locks[tl2StripeFor(a)];
}

/** The per-thread transaction-slot cache, keyed by region serial.
 *  A slot outliving its region is never used with it again: its
 *  serial matches no later region (even one at the same address), so
 *  its dangling region and counter pointers stay unread until the
 *  slot is rebound. */
NativeTx &
txSlotFor(Region *r)
{
    thread_local std::vector<std::unique_ptr<NativeTx>> slots;
    for (auto &s : slots) {
        if (s->serial == r->serial)
            return *s;
    }
    NativeTx *t = nullptr;
    for (auto &s : slots) {
        if (!s->live) {
            t = s.get();
            break;
        }
    }
    if (t == nullptr) {
        slots.push_back(std::make_unique<NativeTx>());
        t = slots.back().get();
        t->rng = selfId() * 0x9E3779B97F4A7C15ULL;
    }
    t->region = r;
    t->serial = r->serial;
    t->counters = &r->countersForSelf();
    t->abortStreak = 0;
    return *t;
}

/** Spin tm_begin's back-off for the slot's current abort streak. */
void
backOff(NativeTx &t)
{
    const unsigned k = std::min(t.abortStreak, kBackoffCap);
    const std::uint64_t pauses =
        nextRandom(t.rng) & ((std::uint64_t{1} << k) - 1);
    for (std::uint64_t i = 0; i < pauses; ++i)
        cpuRelax();
    bump(t.counters->backoffPauses, pauses);
}

void
countOutcome(NativeTx &t, Tl2Status s)
{
    bump(t.counters->outcomes[static_cast<unsigned>(s)]);
}

/** Finish a failed TL2 attempt: flash its sets, count the cause and
 *  lengthen the next tm_begin's back-off.  The handle is dead. */
void
abortAttempt(NativeTx &t, Tl2Status why)
{
    t.algo.abortCleanup();
    t.logOps.clear();
    t.live = false;
    ++t.abortStreak;
    countOutcome(t, why);
}

Region *
asRegion(shared_t shared)
{
    return static_cast<Region *>(shared);
}

/** The transaction behind @p tx.  Fatal unless it is live and was
 *  begun on @p r: a handle that a commit or a failed access finished
 *  must never act again. */
NativeTx &
liveTx(Region *r, tx_t tx)
{
    NativeTx &t = *reinterpret_cast<NativeTx *>(tx);
    if (!t.live || t.region != r)
        die("transaction handle is not live in this region");
    return t;
}

void *
allocSegment(std::size_t bytes, std::size_t align)
{
    const std::size_t a = align < alignof(std::max_align_t)
                              ? alignof(std::max_align_t)
                              : align;
    const std::size_t rounded = (bytes + a - 1) / a * a;
    void *p = std::aligned_alloc(a, rounded);
    if (p != nullptr)
        std::memset(p, 0, rounded);
    return p;
}

void
recordOp(NativeTx &t, bool isWrite, std::uintptr_t a,
         std::uint64_t v, unsigned size)
{
    if (t.region->log.load(std::memory_order_relaxed) != nullptr)
        t.logOps.push_back(AccessLog::Op{isWrite, a, v, size});
}

void
flushLog(NativeTx &t, std::uint64_t stamp, bool readOnly)
{
    AccessLog *log = t.region->log.load(std::memory_order_relaxed);
    if (log != nullptr)
        log->commitTxn(stamp, readOnly, std::move(t.logOps));
    t.logOps.clear();
}

/** Load one chunk of a caller-private buffer (plain memory). */
std::uint64_t
privateLoad(const void *p, unsigned size)
{
    std::uint64_t v = 0;
    std::memcpy(&v, p, size);
    return v;
}

void
privateStore(void *p, std::uint64_t v, unsigned size)
{
    std::memcpy(p, &v, size);
}

} // anonymous namespace

shared_t
tm_create_with(std::size_t size, std::size_t align, Backend backend)
{
    if (size == 0 || align == 0 || (align & (align - 1)) != 0 ||
        size % align != 0) {
        return invalid_shared;
    }
    static std::atomic<std::uint64_t> nextSerial{1};
    auto r = std::make_unique<Region>();
    r->serial = nextSerial.fetch_add(1, std::memory_order_relaxed);
    r->backend = backend;
    r->align = align;
    r->chunk = align < 8 ? align : 8;
    r->start = allocSegment(size, align);
    if (r->start == nullptr)
        return invalid_shared;
    r->firstBytes = size;
    r->segments.push_back(r->start);
    if (backend == Backend::Tl2) {
        r->locks =
            std::make_unique<std::atomic<std::uint64_t>[]>(kTl2Stripes);
        for (std::size_t i = 0; i < kTl2Stripes; ++i)
            r->locks[i].store(0, std::memory_order_relaxed);
    }
    return r.release();
}

shared_t
tm_create(std::size_t size, std::size_t align)
{
    return tm_create_with(size, align, Backend::Tl2);
}

void
tm_destroy(shared_t shared)
{
    Region *r = asRegion(shared);
    for (void *seg : r->segments)
        std::free(seg);
    delete r;
}

void *
tm_start(shared_t shared)
{
    return asRegion(shared)->start;
}

std::size_t
tm_size(shared_t shared)
{
    return asRegion(shared)->firstBytes;
}

std::size_t
tm_align(shared_t shared)
{
    return asRegion(shared)->align;
}

Stats
tm_stats(shared_t shared)
{
    Region *r = asRegion(shared);
    Stats st;
    std::lock_guard<std::mutex> g(r->countersLock);
    for (const auto &[owner, c] : r->counters) {
        const auto n = [&c](Tl2Status s) {
            return c->outcomes[static_cast<unsigned>(s)].load(
                std::memory_order_relaxed);
        };
        st.commits += n(Tl2Status::Ok);
        st.readLocked += n(Tl2Status::ReadLocked);
        st.readTooNew += n(Tl2Status::ReadTooNew);
        st.readChanged += n(Tl2Status::ReadChanged);
        st.commitLockBusy += n(Tl2Status::CommitLockBusy);
        st.commitValidation += n(Tl2Status::CommitValidation);
        st.backoffPauses +=
            c->backoffPauses.load(std::memory_order_relaxed);
    }
    return st;
}

void
tm_set_logging(shared_t shared, AccessLog *log)
{
    asRegion(shared)->log.store(log, std::memory_order_relaxed);
}

tx_t
tm_begin(shared_t shared, bool is_ro)
{
    Region *r = asRegion(shared);
    NativeTx &t = txSlotFor(r);
    if (t.live)
        die("tm_begin with a transaction already live on this "
            "thread/region");
    if (t.abortStreak != 0)
        backOff(t);
    t.readOnly = is_ro;
    t.live = true;
    t.logOps.clear();
    if (r->backend == Backend::GlobalLock) {
        r->gl.lock();
    } else {
        NativeWorld w{*r};
        t.algo.begin(w, is_ro);
    }
    return reinterpret_cast<tx_t>(&t);
}

bool
tm_end(shared_t shared, tx_t tx)
{
    Region *r = asRegion(shared);
    NativeTx &t = liveTx(r, tx);
    t.live = false;
    if (r->backend == Backend::GlobalLock) {
        const std::uint64_t stamp = ++r->glTicket;
        flushLog(t, stamp, false);
        r->gl.unlock();
        countOutcome(t, Tl2Status::Ok);
        return true;
    }
    NativeWorld w{*r};
    const bool ro = t.algo.readOnly();
    std::uint64_t wv = 0;
    if (const Tl2Status s = t.algo.commit(w, wv); s != Tl2Status::Ok) {
        abortAttempt(t, s);
        return false;
    }
    flushLog(t, ro ? t.algo.readVersion() : wv, ro);
    t.algo.abortCleanup();  // flash the sets for slot reuse
    t.abortStreak = 0;
    countOutcome(t, Tl2Status::Ok);
    return true;
}

bool
tm_read(shared_t shared, tx_t tx, const void *source,
        std::size_t size, void *target)
{
    Region *r = asRegion(shared);
    NativeTx &t = liveTx(r, tx);
    const std::size_t chunk = r->chunk;
    auto src = reinterpret_cast<std::uintptr_t>(source);
    auto dst = static_cast<char *>(target);
    if (((src | size) & (r->align - 1)) != 0)
        die("tm_read address or size is not a multiple of the alignment");

    if (r->backend == Backend::GlobalLock) {
        std::memcpy(target, source, size);
        for (std::size_t off = 0; off < size; off += chunk) {
            recordOp(t, false, src + off,
                     privateLoad(dst + off,
                                 static_cast<unsigned>(chunk)),
                     static_cast<unsigned>(chunk));
        }
        return true;
    }

    NativeWorld w{*r};
    for (std::size_t off = 0; off < size; off += chunk) {
        std::uint64_t v = 0;
        const Tl2Status s = t.algo.read(w, src + off,
                                        static_cast<unsigned>(chunk), v);
        if (s != Tl2Status::Ok) {
            abortAttempt(t, s);
            return false;
        }
        privateStore(dst + off, v, static_cast<unsigned>(chunk));
        recordOp(t, false, src + off, v, static_cast<unsigned>(chunk));
    }
    return true;
}

bool
tm_write(shared_t shared, tx_t tx, const void *source,
         std::size_t size, void *target)
{
    Region *r = asRegion(shared);
    NativeTx &t = liveTx(r, tx);
    if (t.readOnly)
        die("tm_write inside a transaction begun with is_ro=true");
    const std::size_t chunk = r->chunk;
    auto src = static_cast<const char *>(source);
    auto dst = reinterpret_cast<std::uintptr_t>(target);
    if (((dst | size) & (r->align - 1)) != 0)
        die("tm_write address or size is not a multiple of the alignment");

    if (r->backend == Backend::GlobalLock) {
        std::memcpy(target, source, size);
        for (std::size_t off = 0; off < size; off += chunk) {
            recordOp(t, true, dst + off,
                     privateLoad(src + off,
                                 static_cast<unsigned>(chunk)),
                     static_cast<unsigned>(chunk));
        }
        return true;
    }

    NativeWorld w{*r};
    for (std::size_t off = 0; off < size; off += chunk) {
        const std::uint64_t v =
            privateLoad(src + off, static_cast<unsigned>(chunk));
        t.algo.write(w, dst + off, v, static_cast<unsigned>(chunk));
        recordOp(t, true, dst + off, v, static_cast<unsigned>(chunk));
    }
    return true;
}

Alloc
tm_alloc(shared_t shared, tx_t tx, std::size_t size, void **target)
{
    Region *r = asRegion(shared);
    if (liveTx(r, tx).readOnly)
        die("tm_alloc inside a transaction begun with is_ro=true");
    if (size == 0 || size % r->align != 0)
        return Alloc::nomem;
    void *seg = allocSegment(size, r->align);
    if (seg == nullptr)
        return Alloc::nomem;
    {
        std::lock_guard<std::mutex> g(r->segLock);
        r->segments.push_back(seg);
    }
    *target = seg;
    return Alloc::success;
}

bool
tm_free(shared_t shared, tx_t tx, void *)
{
    if (liveTx(asRegion(shared), tx).readOnly)
        die("tm_free inside a transaction begun with is_ro=true");
    // Deferred: the segment stays registered (and allocated) until
    // tm_destroy, so a transaction that read the segment before the
    // free committed can never touch recycled memory.  Bounded by
    // the region's lifetime, like the simulator's txFree model.
    return true;
}

} // namespace flextm::native
