/**
 * @file
 * The object-based STM layer shared by RSTM and RTM-F.
 *
 * Objects are mapped to cache lines, each hashed to a header word in
 * one machine-wide table.  A header holds either a version (even) or
 * the acquiring core's locked word (core << 1 | 1).  A per-core
 * registry of transaction status words (TSWs) and karma lets an
 * attacker find, rank and abort the owner of a locked header.
 */

#ifndef FLEXTM_RUNTIME_OBJECT_STM_HH
#define FLEXTM_RUNTIME_OBJECT_STM_HH

#include <vector>

#include "runtime/tx_thread.hh"

namespace flextm
{

/** Machine-wide object-STM metadata (RSTM and RTM-F). */
struct ObjectStmGlobals
{
    explicit ObjectStmGlobals(Machine &m);

    Addr headerBase;      //!< per-object (line) header words
    unsigned headerCount;
    std::vector<Addr> tswOf;             //!< per core
    std::vector<std::uint64_t> karma;    //!< per core

    Addr headerFor(Addr a) const;
};

/** Base of the object-based runtime threads. */
class ObjectStmThread : public TxThread
{
  public:
    bool objectBased() const override { return true; }

  protected:
    /** Allocates the thread's TSW (its own line, so AOU on it never
     *  aliases with data) before any runtime-specific allocation. */
    ObjectStmThread(Machine &m, ObjectStmGlobals &g, ThreadId tid,
                    CoreId core);

    static bool isLocked(std::uint64_t word) { return (word & 1) != 0; }
    static CoreId
    lockOwner(std::uint64_t word)
    {
        return static_cast<CoreId>(word >> 1);
    }
    /** The header word that marks an object acquired by this core. */
    std::uint64_t
    lockedWord() const
    {
        return (std::uint64_t{core_} << 1) | 1;
    }

    /** Wait out / abort the owner of a locked header under the
     *  machine's contention-management policy. */
    void resolveOwner(Addr header);

    ObjectStmGlobals &g_;
    Addr tswAddr_;

  private:
    /** Whoever holds a header locked, as the contention manager sees
     *  it. */
    class HeaderOwner;
};

} // namespace flextm

#endif // FLEXTM_RUNTIME_OBJECT_STM_HH
