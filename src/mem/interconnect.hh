/**
 * @file
 * Latency model for the 4-ary tree interconnect (Table 3a: 4-ary
 * tree, 1-cycle links, 64-byte links).
 *
 * Cores sit at the leaves; the shared L2 / directory sits at the
 * root.  An L1 miss climbs to the root; a forwarded request descends
 * to the target leaf and its response climbs back.  All forwards of a
 * single request travel in parallel, so a request's forwarding cost
 * is one round trip, not a sum over responders.
 */

#ifndef FLEXTM_MEM_INTERCONNECT_HH
#define FLEXTM_MEM_INTERCONNECT_HH

#include "sim/types.hh"

namespace flextm
{

/** Tree-topology hop/latency calculator. */
class Interconnect
{
  public:
    explicit Interconnect(unsigned cores)
    {
        depth_ = 0;
        unsigned reach = 1;
        while (reach < cores) {
            reach *= radix;
            ++depth_;
        }
        if (depth_ == 0)
            depth_ = 1;
    }

    /** Leaf-to-root hop count. */
    unsigned depth() const { return depth_; }

    /** One-way L1 -> L2 latency. */
    Cycles
    l1ToL2() const
    {
        return depth_ * linkLatency;
    }

    /** Round trip L1 -> L2 -> L1 (request/response). */
    Cycles
    l1ToL2RoundTrip() const
    {
        return 2 * l1ToL2();
    }

    /** Directory-forwarded round trip: L2 -> remote L1 -> L2. */
    Cycles
    forwardRoundTrip() const
    {
        return 2 * l1ToL2();
    }

  private:
    /** Tree fan-out (Table 3a: 4-ary tree). */
    static constexpr unsigned radix = 4;
    /** Per-link latency (Table 3a: 1-cycle links). */
    static constexpr Cycles linkLatency = 1;

    unsigned depth_;
};

} // namespace flextm

#endif // FLEXTM_MEM_INTERCONNECT_HH
