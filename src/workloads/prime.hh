/**
 * @file
 * Prime-factorization background application (Section 7.4): the
 * CPU-intensive, non-transactional program co-scheduled with
 * LFUCache / RandomGraph in the multiprogramming experiments
 * (Figure 5e-f).  Work is trial division over thread-private
 * numbers: pure compute plus a small private working set.
 */

#ifndef FLEXTM_WORKLOADS_PRIME_HH
#define FLEXTM_WORKLOADS_PRIME_HH

#include <cstdint>

#include "runtime/tx_thread.hh"

namespace flextm
{

/** Per-thread prime-factorization worker; as an abort-yield task it
 *  runs one chunk after each abort. */
class PrimeWorker final : public AbortYieldTask
{
  public:
    explicit PrimeWorker(std::uint64_t seed) : next_(seed * 2 + 3) {}

    PrimeWorker(const PrimeWorker &) = delete;
    PrimeWorker &operator=(const PrimeWorker &) = delete;

    /**
     * Factor one number by trial division, charging one cycle per
     * division-ish step on @p t.  Returns the number of prime
     * factors found (keeps the work honest).
     */
    unsigned runChunk(TxThread &t);

    void runAfterAbort(TxThread &t) override { runChunk(t); }

    std::uint64_t chunks() const { return chunks_; }

  private:
    std::uint64_t next_;
    std::uint64_t chunks_ = 0;
};

} // namespace flextm

#endif // FLEXTM_WORKLOADS_PRIME_HH
