#include "mem/l1_cache.hh"

#include "sim/logging.hh"

namespace flextm
{

L1Cache::L1Cache(std::size_t bytes, unsigned ways,
                 unsigned victim_entries, bool unbounded_victim)
    : ways_(ways), victimEntries_(victim_entries),
      unboundedVictim_(unbounded_victim)
{
    sim_assert(ways >= 1);
    numSets_ = static_cast<unsigned>(bytes / (lineBytes * ways));
    sim_assert(numSets_ >= 1 && (numSets_ & (numSets_ - 1)) == 0,
               "L1 set count must be a power of two");
    sets_.resize(static_cast<std::size_t>(numSets_) * ways_);
}

unsigned
L1Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>(lineNumber(addr)) & (numSets_ - 1);
}

L1Line *
L1Cache::find(Addr addr, Cycles now)
{
    L1Line *line = probe(addr);
    if (line)
        line->lastUse = now;
    return line;
}

L1Line *
L1Cache::probe(Addr addr)
{
    const Addr base = lineAlign(addr);
    const unsigned set = setIndex(addr);
    for (unsigned w = 0; w < ways_; ++w) {
        L1Line &l = sets_[static_cast<std::size_t>(set) * ways_ + w];
        if (l.valid() && l.base == base)
            return &l;
    }
    for (auto &l : victim_) {
        if (l.valid() && l.base == base)
            return &l;
    }
    return nullptr;
}

const L1Line *
L1Cache::probe(Addr addr) const
{
    return const_cast<L1Cache *>(this)->probe(addr);
}

void
L1Cache::invalidate(L1Line &line)
{
    line.state = LineState::I;
    line.aBit = false;
}

void
L1Cache::flashCommit()
{
    forEachValid([](L1Line &l) {
        if (l.state == LineState::TMI)
            l.state = LineState::M;
        else if (l.state == LineState::TI)
            l.state = LineState::I;
    });
    // Compact invalidated victim-buffer entries.
    victim_.remove_if([](const L1Line &l) { return !l.valid(); });
}

void
L1Cache::flashAbort()
{
    forEachValid([](L1Line &l) {
        if (l.state == LineState::TMI || l.state == LineState::TI)
            l.state = LineState::I;
    });
    victim_.remove_if([](const L1Line &l) { return !l.valid(); });
}

unsigned
L1Cache::countState(LineState s) const
{
    unsigned n = 0;
    for (const auto &l : sets_)
        if (l.valid() && l.state == s)
            ++n;
    for (const auto &l : victim_)
        if (l.valid() && l.state == s)
            ++n;
    return n;
}

} // namespace flextm
