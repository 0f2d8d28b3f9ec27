#include "workloads/lfu_cache.hh"

#include "sim/logging.hh"

namespace flextm
{

namespace
{

constexpr std::uint64_t noPage = ~std::uint64_t{0};

} // anonymous namespace

LFUCacheWorkload::LFUCacheWorkload(unsigned pages,
                                   unsigned heap_entries)
    : pages_(pages), heapEntries_(heap_entries), zipf_(pages, 2.0)
{
}

void
LFUCacheWorkload::setup(TxThread &t)
{
    freqBase_ = t.alloc(std::size_t{pages_} * 8, lineBytes);
    heapIdxBase_ = t.alloc(std::size_t{pages_} * 8, lineBytes);
    heapBase_ = t.alloc(std::size_t{heapEntries_} * 16, lineBytes);
    for (unsigned p = 0; p < pages_; ++p) {
        t.store<std::uint64_t>(freqBase_ + p * 8, 0);
        t.store<std::uint64_t>(heapIdxBase_ + p * 8, 0);
    }
    for (unsigned i = 0; i < heapEntries_; ++i) {
        t.store<std::uint64_t>(heapSlot(i), noPage);
        t.store<std::uint64_t>(heapSlot(i) + 8, 0);
    }
}

void
LFUCacheWorkload::setHeap(TxThread &t, unsigned i, std::uint64_t page,
                          std::uint64_t freq)
{
    t.store<std::uint64_t>(heapSlot(i), page);
    t.store<std::uint64_t>(heapSlot(i) + 8, freq);
    if (page != noPage)
        t.store<std::uint64_t>(heapIdxBase_ + page * 8, i + 1);
}

void
LFUCacheWorkload::siftDown(TxThread &t, unsigned i)
{
    for (;;) {
        const unsigned l = 2 * i + 1;
        const unsigned r = 2 * i + 2;
        unsigned smallest = i;
        const std::uint64_t fi = heapFreq(t, i);
        std::uint64_t fs = fi;
        if (l < heapEntries_ && heapFreq(t, l) < fs) {
            smallest = l;
            fs = heapFreq(t, l);
        }
        if (r < heapEntries_ && heapFreq(t, r) < fs) {
            smallest = r;
            fs = heapFreq(t, r);
        }
        if (smallest == i)
            return;
        const std::uint64_t pi = heapPage(t, i);
        const std::uint64_t ps = heapPage(t, smallest);
        setHeap(t, i, ps, fs);
        setHeap(t, smallest, pi, fi);
        i = smallest;
    }
}

void
LFUCacheWorkload::runOne(TxThread &t)
{
    const std::uint64_t page = zipf_.sample(t.rng());
    t.txn([&] {
        t.work(12);  // page hash + bookkeeping instructions
        const std::uint64_t f =
            t.load<std::uint64_t>(freqBase_ + page * 8) + 1;
        t.store<std::uint64_t>(freqBase_ + page * 8, f);

        const std::uint64_t hi =
            t.load<std::uint64_t>(heapIdxBase_ + page * 8);
        if (hi != 0) {
            // Page already cached: bump its priority and restore
            // heap order (frequency grew, so it can only move down
            // in a min-heap).
            const unsigned slot = static_cast<unsigned>(hi - 1);
            t.store<std::uint64_t>(heapSlot(slot) + 8, f);
            siftDown(t, slot);
        } else if (f > heapFreq(t, 0)) {
            // Page becomes more valuable than the least-frequently
            // used cached page: evict the heap minimum.
            const std::uint64_t victim = heapPage(t, 0);
            if (victim != noPage)
                t.store<std::uint64_t>(heapIdxBase_ + victim * 8, 0);
            setHeap(t, 0, page, f);
            siftDown(t, 0);
        }
    });
}

void
LFUCacheWorkload::verify(TxThread &t)
{
    // Heap order + index consistency.
    for (unsigned i = 0; i < heapEntries_; ++i) {
        const unsigned l = 2 * i + 1;
        const unsigned r = 2 * i + 2;
        const std::uint64_t f = heapFreq(t, i);
        if (l < heapEntries_) {
            sim_assert(heapFreq(t, l) >= f, "heap order (left)");
        }
        if (r < heapEntries_) {
            sim_assert(heapFreq(t, r) >= f, "heap order (right)");
        }
        const std::uint64_t p = heapPage(t, i);
        if (p != noPage) {
            const std::uint64_t hi =
                t.load<std::uint64_t>(heapIdxBase_ + p * 8);
            sim_assert(hi == i + 1, "heap index out of sync");
        }
    }
}

} // namespace flextm
