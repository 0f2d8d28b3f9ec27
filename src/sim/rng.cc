#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"

namespace flextm
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::nextInt(std::uint64_t bound)
{
    sim_assert(bound > 0);
    return next() % bound;
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    sim_assert(lo <= hi);
    return lo + nextInt(hi - lo + 1);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::percent(unsigned pct)
{
    return nextInt(100) < pct;
}

ZipfSampler::ZipfSampler(std::size_t n, double theta)
{
    sim_assert(n > 0);
    cdf_.resize(n);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        cdf_[i] = acc;
    }
    for (auto &c : cdf_)
        c /= acc;
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    std::size_t lo = 0;
    std::size_t hi = cdf_.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (cdf_[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

} // namespace flextm
