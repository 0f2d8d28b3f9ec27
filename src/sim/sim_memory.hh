/**
 * @file
 * The simulated physical memory image and a simple heap allocator.
 *
 * Every byte a workload touches lives in this flat image; caches hold
 * copies of 64-byte slices of it.  Keeping real data (not just
 * addresses) lets the test suite assert functional correctness of the
 * TM protocols: committed transactions must leave exactly their writes
 * behind, aborted ones none.
 */

#ifndef FLEXTM_SIM_SIM_MEMORY_HH
#define FLEXTM_SIM_SIM_MEMORY_HH

#include <cstring>
#include <map>
#include <vector>

#include "sim/logging.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace flextm
{

/**
 * Flat simulated physical memory with a first-fit free-list allocator.
 *
 * Address 0 is kept unmapped so that 0 can serve as a null simulated
 * pointer.  The allocator is deliberately simple: workloads allocate
 * far less than the image size, and determinism matters more than
 * allocator throughput.
 */
class SimMemory
{
  public:
    explicit SimMemory(std::size_t bytes = defaultBytes);

    /** Total size of the image in bytes. */
    std::size_t size() const { return image_.bytes; }

    /**
     * Allocate a block of at least @p bytes, aligned to @p align
     * (power of two, at least 8).  Returns the simulated address.
     * Allocations are cache-line padded on request via alignment 64 to
     * avoid false sharing in workloads that care.
     */
    Addr allocate(std::size_t bytes, std::size_t align = 8);

    /** Free a block previously returned by allocate(). */
    void free(Addr addr);

    /** Number of live allocations. */
    std::size_t liveAllocations() const { return blocks_.size(); }

    /** Raw access used by cache fills/writebacks and by tests. */
    void read(Addr addr, void *out, std::size_t n) const;
    void write(Addr addr, const void *in, std::size_t n);

    /** Typed convenience accessors (backdoor: no timing, no caches). */
    template <typename T>
    T
    load(Addr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(Addr addr, T v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Pointer to the backing byte for line-granularity copies. */
    const std::uint8_t *linePtr(Addr line_base) const;
    std::uint8_t *linePtr(Addr line_base);

    static constexpr std::size_t defaultBytes = 256u << 20;

  private:
    /**
     * The zero-initialized backing store.  calloc, not a
     * value-initialized vector: a fresh Machine's image is hundreds
     * of megabytes of which a workload touches a few, and calloc
     * serves large requests with lazily-zeroed pages, so Machine
     * construction cost scales with bytes *used*, not bytes
     * configured.  That matters when a seed sweep builds a Machine
     * per cell.
     */
    struct Image
    {
        explicit Image(std::size_t n);
        ~Image();
        Image(const Image &) = delete;
        Image &operator=(const Image &) = delete;
        std::uint8_t *data = nullptr;
        std::size_t bytes = 0;
    };
    Image image_;
    /** addr -> block size, for free() and leak queries. */
    FlatMap<Addr, std::size_t> blocks_;
    /** free list: addr -> size, coalesced on free. */
    std::map<Addr, std::size_t> freeList_;
    std::size_t allocated_ = 0;

    void checkRange(Addr addr, std::size_t n) const;
};

} // namespace flextm

#endif // FLEXTM_SIM_SIM_MEMORY_HH
