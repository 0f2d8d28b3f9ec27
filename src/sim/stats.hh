/**
 * @file
 * Lightweight statistics registry.  Components register named scalar
 * counters and histograms; harnesses snapshot and print them.
 *
 * Names are interned: the name -> stat map is consulted once at
 * registration, after which components hold a cached Counter or
 * Histogram reference, so hot-path increments never touch a string.
 * Stats live in map nodes, so the references handed out stay valid
 * as more stats register.
 */

#ifndef FLEXTM_SIM_STATS_HH
#define FLEXTM_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace flextm
{

/** A named monotonically increasing counter. */
struct Counter
{
    std::uint64_t value = 0;

    void operator+=(std::uint64_t n) { value += n; }
    void operator++() { ++value; }
    void operator++(int) { ++value; }
};

/**
 * A value distribution tracker.  Values below kExact get an exact
 * per-value bucket (simulator sample sets - CST population counts,
 * consecutive-abort runs - live entirely in this range, so median
 * and percentile queries stay exact there).  Larger values fall into
 * power-of-two overflow buckets whose per-bucket mean stands in for
 * the samples; count/sum/min/max stay exact regardless.  Both add()
 * and every snapshot query are O(buckets), independent of how many
 * samples were recorded.
 */
class Histogram
{
  public:
    void add(std::uint64_t v);
    void clear();

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
    double mean() const;
    /** Median of the samples (0 when empty). */
    std::uint64_t median() const;
    /** p-th percentile, p in [0,100]. */
    std::uint64_t percentile(double p) const;

  private:
    /** Values below this have exact per-value buckets. */
    static constexpr std::uint64_t kExact = 256;
    /** log2 buckets for v >= kExact: bucket k holds [2^(k+8), 2^(k+9)). */
    static constexpr unsigned kOverflow = 56;

    std::array<std::uint64_t, kExact> exact_{};
    std::array<std::uint64_t, kOverflow> overCount_{};
    std::array<std::uint64_t, kOverflow> overSum_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;

    std::uint64_t valueAtRank(std::uint64_t rank) const;
};

/**
 * Interned name -> stat registry.  One registry per simulated machine
 * so that repeated experiments in one process do not bleed into each
 * other.  Lookups by name accept string_views and never allocate; a
 * std::string is built once per name, at first registration.
 */
class StatRegistry
{
  public:
    Counter &counter(std::string_view name);
    Histogram &histogram(std::string_view name);

    /** Value of a named counter, 0 when unregistered.  Allocation
     *  free: the name is looked up heterogeneously. */
    std::uint64_t counterValue(std::string_view name) const;

    /** Visit counters in name order: fn(const std::string&, value). */
    template <typename F>
    void
    forEachCounter(F &&fn) const
    {
        for (const auto &[name, c] : counters_)
            fn(name, c.value);
    }

    /** Dump all counters to stdout (debug aid). */
    void dump() const;

  private:
    std::map<std::string, Counter, std::less<>> counters_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

} // namespace flextm

#endif // FLEXTM_SIM_STATS_HH
