#include "native/tm.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "native/access_log.hh"
#include "runtime/tl2_algo.hh"
#include "sim/env_util.hh"

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

/** Same stripe geometry as the simulated runtime: 2^16 lock words,
 *  Fibonacci-hashed 8-byte granules. */
constexpr unsigned kLockBits = 16;
constexpr std::size_t kLockCount = std::size_t{1} << kLockBits;

std::size_t
stripeFor(std::uintptr_t a)
{
    return ((a >> 3) * 2654435761ULL) & (kLockCount - 1);
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
    void
    lockWaitRound(std::atomic<std::uint64_t> *, unsigned tries)
    {
        if (tries >= kMaxWaitRounds)
            throw TxAbort{AbortCause::CmSelf};
        if (tries % kYieldEvery == 0)
            std::this_thread::yield();
    }
    // Bookkeeping-cost hooks are simulator-only.
    void onBegin() {}
    void onReadIssued() {}
    void onWriteSetHit() {}
    void onReadLogged() {}
    void onWriteLogged() {}
};

/** One transaction attempt's state, cached per (thread, region). */
struct NativeTx
{
    Region *region = nullptr;
    bool readOnly = false;
    bool live = false;
    Tl2Algo<std::uintptr_t, std::atomic<std::uint64_t> *> algo;
    std::vector<AccessLog::Op> logOps;
    std::uint64_t glTicket = 0;  //!< GlobalLock: ticket at begin
};

struct Region
{
    Backend backend;
    std::size_t align;
    std::size_t chunk;  //!< min(align, 8): one Tl2Algo word
    void *start = nullptr;
    std::size_t firstBytes = 0;

    /** GV1 clock (TL2). */
    std::atomic<std::uint64_t> clock{0};
    /** Stripe lock words (TL2). */
    std::unique_ptr<std::atomic<std::uint64_t>[]> locks;

    /** The single global lock (GlobalLock backend). */
    std::mutex gl;
    /** Commit ticket, taken under gl: the GL serialization stamp. */
    std::uint64_t glTicket = 0;

    /** All segments (first + tm_alloc'd + tm_free'd graveyard); a
     *  freed segment's memory is only recycled at tm_destroy, so no
     *  concurrent reader can ever touch reused memory. */
    std::mutex segLock;
    std::vector<void *> segments;

    std::atomic<AccessLog *> log{nullptr};
};

std::uint64_t
NativeWorld::sampleClock()
{
    return r.clock.load(std::memory_order_acquire);
}

std::uint64_t
NativeWorld::bumpClock()
{
    return r.clock.fetch_add(2, std::memory_order_acq_rel) + 2;
}

std::atomic<std::uint64_t> *
NativeWorld::lockFor(std::uintptr_t a)
{
    return &r.locks[stripeFor(a)];
}

/** The per-thread transaction-slot cache.  A slot outliving its
 *  region is harmless: tm_begin fully re-initializes it, and slots
 *  are keyed by region address only for reuse. */
NativeTx &
txSlotFor(Region *r)
{
    thread_local std::vector<std::unique_ptr<NativeTx>> slots;
    for (auto &s : slots) {
        if (s->region == r)
            return *s;
    }
    for (auto &s : slots) {
        if (!s->live) {
            s->region = r;
            return *s;
        }
    }
    slots.push_back(std::make_unique<NativeTx>());
    slots.back()->region = r;
    return *slots.back();
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
    auto r = std::make_unique<Region>();
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
            std::make_unique<std::atomic<std::uint64_t>[]>(kLockCount);
        for (std::size_t i = 0; i < kLockCount; ++i)
            r->locks[i].store(0, std::memory_order_relaxed);
    }
    return r.release();
}

shared_t
tm_create(std::size_t size, std::size_t align)
{
    const int choice =
        env::choiceOr("FLEXTM_NATIVE_BACKEND", {"tl2", "gl"});
    return tm_create_with(size, align,
                          choice == 1 ? Backend::GlobalLock
                                      : Backend::Tl2);
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

Backend
tm_backend(shared_t shared)
{
    return asRegion(shared)->backend;
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
    t.region = r;
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
        return true;
    }
    NativeWorld w{*r};
    try {
        const bool ro = t.algo.readOnly();
        const std::uint64_t wv = t.algo.commit(w);
        flushLog(t, ro ? t.algo.readVersion() : wv, ro);
        t.algo.abortCleanup();  // flash the sets for slot reuse
        return true;
    } catch (const TxAbort &) {
        t.algo.abortCleanup();
        t.logOps.clear();
        return false;
    }
}

bool
tm_read(shared_t shared, tx_t tx, const void *source,
        std::size_t size, void *target)
{
    Region *r = asRegion(shared);
    NativeTx &t = liveTx(r, tx);
    const std::size_t chunk = r->chunk;
    if (size % chunk != 0)
        die("tm_read size is not a multiple of the alignment");
    auto src = reinterpret_cast<std::uintptr_t>(source);
    auto dst = static_cast<char *>(target);

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
    try {
        for (std::size_t off = 0; off < size; off += chunk) {
            const std::uint64_t v =
                t.algo.read(w, src + off,
                            static_cast<unsigned>(chunk));
            privateStore(dst + off, v, static_cast<unsigned>(chunk));
            recordOp(t, false, src + off, v,
                     static_cast<unsigned>(chunk));
        }
        return true;
    } catch (const TxAbort &) {
        t.algo.abortCleanup();
        t.logOps.clear();
        t.live = false;
        return false;
    }
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
    if (size % chunk != 0)
        die("tm_write size is not a multiple of the alignment");
    auto src = static_cast<const char *>(source);
    auto dst = reinterpret_cast<std::uintptr_t>(target);

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
    liveTx(r, tx);
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
    liveTx(asRegion(shared), tx);
    // Deferred: the segment stays registered (and allocated) until
    // tm_destroy, so a transaction that read the segment before the
    // free committed can never touch recycled memory.  Bounded by
    // the region's lifetime, like the simulator's txFree model.
    return true;
}

} // namespace flextm::native
