/**
 * @file
 * Deterministic random-number generation for the simulator: a
 * xoshiro256** engine plus the Zipf(theta) sampler used by the
 * LFUCache workload (Table 3b: theta 2, p(i) proportional to
 * sum_{0<j<=i} j^-2) and by the native Zipfian traces.
 */

#ifndef FLEXTM_SIM_RNG_HH
#define FLEXTM_SIM_RNG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flextm
{

/**
 * Small, fast, deterministic PRNG (xoshiro256**).  Every simulated
 * thread owns its own engine so that interleaving changes never
 * perturb a thread's random stream.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t nextInt(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** True with probability pct/100. */
    bool percent(unsigned pct);

  private:
    std::uint64_t s_[4];
};

/**
 * Zipf(theta) sampler over {0, ..., n-1}: value i has weight
 * 1/(i+1)^theta, so its cumulative weight is sum_{0<j<=i+1} j^-theta
 * (theta 2 is the LFUCache page selector in the paper; theta 0 is
 * uniform).  Sampling is O(log n) by binary search over the
 * precomputed CDF.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double theta);

    /** Draw one value in [0, n). */
    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace flextm

#endif // FLEXTM_SIM_RNG_HH
