/**
 * @file
 * Private L1 data cache (Table 3a: 32 KB, 2-way, 64-byte blocks,
 * 32-entry victim buffer).
 *
 * The tag array carries the FlexTM additions of Figure 2: the T bit
 * (encoding TMI/TI together with the MESI bits) and the A
 * (alert-on-update) bit.  Flash commit/abort is a bulk operation over
 * the T bits (Section 3.3): commit reverts TMI->M and TI->I; abort
 * reverts TMI->I and TI->I.
 *
 * The victim buffer extends associativity: lines evicted from a set
 * move there first; real evictions (writeback / overflow-table spill)
 * happen only when the victim buffer itself overflows.  The
 * unbounded-victim-buffer mode supports the Section 7.3 overflow
 * ablation.
 */

#ifndef FLEXTM_MEM_L1_CACHE_HH
#define FLEXTM_MEM_L1_CACHE_HH

#include <array>
#include <cstdint>
#include <list>
#include <vector>

#include "mem/protocol.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace flextm
{

/** One L1 line: tag, MESI+T state, A bit, and data. */
struct L1Line
{
    Addr base = 0;                 //!< line-aligned address
    LineState state = LineState::I;
    bool aBit = false;             //!< alert-on-update mark
    Cycles lastUse = 0;            //!< LRU timestamp
    std::array<std::uint8_t, lineBytes> data{};

    bool valid() const { return state != LineState::I; }
};

/** Set-associative L1 with a FIFO-LRU victim buffer. */
class L1Cache
{
  public:
    L1Cache(std::size_t bytes, unsigned ways, unsigned victim_entries,
            bool unbounded_victim);

    /** Find a valid line; nullptr on miss.  Touches LRU state. */
    L1Line *find(Addr addr, Cycles now);

    /** Find without touching LRU (for responses / flash scans). */
    L1Line *probe(Addr addr);
    const L1Line *probe(Addr addr) const;

    /**
     * Allocate a frame for @p addr.  If space must be made, the
     * displaced line is passed to @p evict (state != I guaranteed);
     * the callee performs writeback / OT spill.  The returned frame
     * is zeroed with state I; the caller fills it.
     */
    template <typename Evict>
    L1Line &allocate(Addr addr, Cycles now, Evict &&evict);

    /** Drop a specific line (invalidate). */
    void invalidate(L1Line &line);

    /**
     * Forcibly evict the LRU line currently in state @p s (fault
     * injection: drive the overflow-table spill path without needing
     * a giant working set).  The line is passed to @p evict exactly
     * as in allocate(); returns false when no line is in that state.
     */
    template <typename Evict>
    bool evictOneInState(LineState s, Evict &&evict);

    /** Flash commit: TMI->M, TI->I (clear T bits). */
    void flashCommit();

    /** Flash abort: TMI->I, TI->I. */
    void flashAbort();

    /** Apply @p fn to every valid line (sets + victim buffer). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (auto &l : sets_) {
            if (l.valid())
                fn(l);
        }
        for (auto &l : victim_) {
            if (l.valid())
                fn(l);
        }
    }

    /** Count valid lines in a given state. */
    unsigned countState(LineState s) const;

    unsigned sets() const { return numSets_; }
    unsigned ways() const { return ways_; }

  private:
    unsigned numSets_;
    unsigned ways_;
    unsigned victimEntries_;
    bool unboundedVictim_;

    /** sets_[set * ways_ + way] */
    std::vector<L1Line> sets_;
    std::list<L1Line> victim_;

    unsigned setIndex(Addr addr) const;
};

template <typename Evict>
L1Line &
L1Cache::allocate(Addr addr, Cycles now, Evict &&evict)
{
    sim_assert(probe(addr) == nullptr, "allocate over existing line");
    const Addr base = lineAlign(addr);
    const unsigned set = setIndex(addr);

    // Free way?
    L1Line *frame = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        L1Line &l = sets_[static_cast<std::size_t>(set) * ways_ + w];
        if (!l.valid()) {
            frame = &l;
            break;
        }
    }

    if (!frame) {
        // Displace the set's LRU line into the victim buffer.
        L1Line *lru = nullptr;
        for (unsigned w = 0; w < ways_; ++w) {
            L1Line &l =
                sets_[static_cast<std::size_t>(set) * ways_ + w];
            if (!lru || l.lastUse < lru->lastUse)
                lru = &l;
        }
        victim_.push_back(*lru);
        frame = lru;

        // Victim buffer overflow: really evict its LRU entry,
        // preferring non-speculative lines so that TMI state is
        // spilled to the overflow table only as a last resort
        // (Section 4.1's "at least one entry free for non-TMI
        // lines" guidance).  In the unbounded-victim ablation
        // (Section 7.3 overflow study) only TMI lines are exempt
        // from eviction - the buffer is not a bigger cache for
        // ordinary lines, it only removes the overflow path.
        if (victim_.size() > victimEntries_) {
            auto pick = victim_.end();
            for (auto it = victim_.begin(); it != victim_.end(); ++it) {
                if (it->state == LineState::TMI)
                    continue;
                if (pick == victim_.end() ||
                    it->lastUse < pick->lastUse) {
                    pick = it;
                }
            }
            if (pick == victim_.end() && !unboundedVictim_) {
                // Everything is TMI; spill the oldest.
                pick = victim_.begin();
                for (auto it = victim_.begin(); it != victim_.end();
                     ++it) {
                    if (it->lastUse < pick->lastUse)
                        pick = it;
                }
            }
            // pick == end() only in unbounded mode with an all-TMI
            // buffer: let it grow instead of spilling.
            if (pick != victim_.end()) {
                if (pick->valid())
                    evict(*pick);
                victim_.erase(pick);
            }
        }
    }

    *frame = L1Line{};
    frame->base = base;
    frame->lastUse = now;
    return *frame;
}

template <typename Evict>
bool
L1Cache::evictOneInState(LineState s, Evict &&evict)
{
    L1Line *pick = nullptr;
    for (auto &l : sets_) {
        if (l.state == s && (!pick || l.lastUse < pick->lastUse))
            pick = &l;
    }
    auto pickIt = victim_.end();
    for (auto it = victim_.begin(); it != victim_.end(); ++it) {
        if (it->state == s && (!pick || it->lastUse < pick->lastUse)) {
            pick = &*it;
            pickIt = it;
        }
    }
    if (!pick)
        return false;
    evict(*pick);
    if (pickIt != victim_.end())
        victim_.erase(pickIt);
    return true;
}

} // namespace flextm

#endif // FLEXTM_MEM_L1_CACHE_HH
