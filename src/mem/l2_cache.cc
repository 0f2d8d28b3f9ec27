#include "mem/l2_cache.hh"

#include "sim/logging.hh"

namespace flextm
{

L2Cache::L2Cache(std::size_t bytes, unsigned ways) : ways_(ways)
{
    sim_assert(ways >= 1);
    numSets_ = static_cast<unsigned>(bytes / (lineBytes * ways));
    sim_assert(numSets_ >= 1 && (numSets_ & (numSets_ - 1)) == 0,
               "L2 set count must be a power of two");
    sets_.resize(numSets_);
}

L2Line *
L2Cache::ensureSet(unsigned set)
{
    if (!sets_[set])
        sets_[set] = std::make_unique<L2Line[]>(ways_);
    return sets_[set].get();
}

unsigned
L2Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>(lineNumber(addr)) & (numSets_ - 1);
}

L2Line *
L2Cache::find(Addr addr, Cycles now)
{
    L2Line *l = probe(addr);
    if (l)
        l->lastUse = now;
    return l;
}

L2Line *
L2Cache::probe(Addr addr)
{
    const Addr base = lineAlign(addr);
    L2Line *frames = setFrames(setIndex(addr));
    if (!frames)
        return nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        L2Line &l = frames[w];
        if (l.valid && l.base == base)
            return &l;
    }
    return nullptr;
}

} // namespace flextm
