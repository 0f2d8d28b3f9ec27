/**
 * @file
 * Shared L2 with an in-tag directory (Table 3a: 8 MB, 8-way; Figure
 * 2: "Shared L2$ Tag | State | Sharer List | Data").  Table 3a's four
 * L2 banks are not modelled: every L2 access costs the same 20-cycle
 * hit latency, whichever bank would have served it.
 *
 * The directory is an adaptation of the SGI Origin 2000 scheme with
 * FlexTM's one modification (Section 3.3): support for *multiple
 * owners* of a line, tracked like the existing multiple-sharer
 * support.  Owners are cores that issued TGETX (hold or held the line
 * in TMI); they are pinged on every other request so their signatures
 * can produce Threatened / Exposed-Read conflict hints.
 *
 * Sharer/owner bits are sticky in the LogTM sense: silent L1
 * evictions do not clear them; they are pruned only when a forwarded
 * request discovers the line is no longer cached *and* no signature
 * or summary-signature match requires keeping the core in the list.
 */

#ifndef FLEXTM_MEM_L2_CACHE_HH
#define FLEXTM_MEM_L2_CACHE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/protocol.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace flextm
{

/** Directory state stored with each L2 tag. */
struct DirEntry
{
    std::uint64_t sharers = 0;    //!< cores in S or TI
    std::uint64_t owners = 0;     //!< cores that issued TGETX (TMI)
    CoreId exclusive = invalidCore;  //!< core in E or M, if any

    bool
    anyCached() const
    {
        return sharers != 0 || owners != 0 || exclusive != invalidCore;
    }

    void
    clear()
    {
        sharers = 0;
        owners = 0;
        exclusive = invalidCore;
    }
};

/** One L2 line. */
struct L2Line
{
    Addr base = 0;
    bool valid = false;
    bool dirty = false;      //!< newer than memory
    Cycles lastUse = 0;
    DirEntry dir;
    std::array<std::uint8_t, lineBytes> data{};
};

/** The shared second-level cache. */
class L2Cache
{
  public:
    L2Cache(std::size_t bytes, unsigned ways);

    L2Line *find(Addr addr, Cycles now);
    L2Line *probe(Addr addr);

    /**
     * Allocate a frame for @p addr, evicting the least-recently-used
     * line without cached L1 copies if possible (callers guarantee
     * the working sets make forced recalls essentially impossible;
     * when they do happen the displaced line is handed to @p evict
     * for recall/writeback).
     */
    template <typename Evict>
    L2Line &allocate(Addr addr, Cycles now, Evict &&evict);

    unsigned sets() const { return numSets_; }

  private:
    unsigned numSets_;
    unsigned ways_;
    /** Set frames, allocated on first touch: an 8 MB L2 is ~14 MB of
     *  line metadata, and zero-initializing all of it up front
     *  dominates Machine construction in sweeps whose workloads touch
     *  a few hundred lines.  Sparse allocation is invisible to the
     *  simulation (untouched sets have no valid lines either way). */
    std::vector<std::unique_ptr<L2Line[]>> sets_;

    unsigned setIndex(Addr addr) const;
    L2Line *setFrames(unsigned set) { return sets_[set].get(); }
    L2Line *ensureSet(unsigned set);
};

template <typename Evict>
L2Line &
L2Cache::allocate(Addr addr, Cycles now, Evict &&evict)
{
    sim_assert(probe(addr) == nullptr, "allocate over existing line");
    const Addr base = lineAlign(addr);
    L2Line *frames = ensureSet(setIndex(addr));

    L2Line *frame = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        L2Line &l = frames[w];
        if (!l.valid) {
            frame = &l;
            break;
        }
    }

    if (!frame) {
        // Prefer victims with no cached L1 copies.
        L2Line *best = nullptr;
        for (unsigned w = 0; w < ways_; ++w) {
            L2Line &l = frames[w];
            const bool l_free = !l.dir.anyCached();
            const bool b_free = best && !best->dir.anyCached();
            if (!best || (l_free && !b_free) ||
                (l_free == b_free && l.lastUse < best->lastUse)) {
                best = &l;
            }
        }
        evict(*best);
        frame = best;
    }

    *frame = L2Line{};
    frame->base = base;
    frame->valid = true;
    frame->lastUse = now;
    return *frame;
}

} // namespace flextm

#endif // FLEXTM_MEM_L2_CACHE_HH
