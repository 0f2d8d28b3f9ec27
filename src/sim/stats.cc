#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace flextm
{

namespace
{

/** Overflow bucket k holds [2^(k+8), 2^(k+9)); v must be >= 256. */
unsigned
overflowBucket(std::uint64_t v)
{
    return std::bit_width(v) - 9;
}

} // anonymous namespace

void
Histogram::add(std::uint64_t v)
{
    if (count_ == 0 || v < min_)
        min_ = v;
    if (count_ == 0 || v > max_)
        max_ = v;
    ++count_;
    sum_ += v;
    if (v < kExact) {
        ++exact_[v];
    } else {
        const unsigned b = overflowBucket(v);
        ++overCount_[b];
        overSum_[b] += v;
    }
}

void
Histogram::clear()
{
    exact_.fill(0);
    overCount_.fill(0);
    overSum_.fill(0);
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
}

double
Histogram::mean() const
{
    if (count_ == 0)
        return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t
Histogram::median() const
{
    return percentile(50.0);
}

/** The 0-based rank'th sample in sorted order.  Exact for values
 *  below kExact; an overflow bucket answers with its mean. */
std::uint64_t
Histogram::valueAtRank(std::uint64_t rank) const
{
    std::uint64_t cum = 0;
    for (std::uint64_t v = 0; v < kExact; ++v) {
        cum += exact_[v];
        if (cum > rank)
            return v;
    }
    for (unsigned b = 0; b < kOverflow; ++b) {
        cum += overCount_[b];
        if (cum > rank)
            return overSum_[b] / overCount_[b];
    }
    return max_;
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    // Clamp out-of-range requests: p <= 0 is the minimum sample,
    // p >= 100 the maximum.  NaN compares false against both bounds
    // and would reach the float->integer cast below (UB), so it gets
    // its own well-defined answer.
    if (std::isnan(p))
        return min_;
    if (p <= 0.0)
        return min_;
    if (p >= 100.0)
        return max_;
    const auto idx = static_cast<std::uint64_t>(
        (p / 100.0) * static_cast<double>(count_ - 1) + 0.5);
    return valueAtRank(std::min(idx, count_ - 1));
}

namespace
{

/** The stat named @p name, registered on first use. */
template <typename T>
T &
intern(std::map<std::string, T, std::less<>> &stats, std::string_view name)
{
    auto it = stats.find(name);
    if (it == stats.end())
        it = stats.emplace(std::string(name), T{}).first;
    return it->second;
}

} // anonymous namespace

Counter &
StatRegistry::counter(std::string_view name)
{
    return intern(counters_, name);
}

Histogram &
StatRegistry::histogram(std::string_view name)
{
    return intern(histograms_, name);
}

std::uint64_t
StatRegistry::counterValue(std::string_view name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value;
}

void
StatRegistry::dump() const
{
    for (const auto &[name, c] : counters_)
        std::printf("%-48s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(c.value));
    for (const auto &[name, h] : histograms_) {
        std::printf("%-48s n=%llu mean=%.2f min=%llu med=%llu "
                    "p99=%llu p999=%llu max=%llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(h.count()), h.mean(),
                    static_cast<unsigned long long>(h.min()),
                    static_cast<unsigned long long>(h.median()),
                    static_cast<unsigned long long>(h.percentile(99.0)),
                    static_cast<unsigned long long>(h.percentile(99.9)),
                    static_cast<unsigned long long>(h.max()));
    }
}

} // namespace flextm
