#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace act::util {

namespace {

/** SplitMix64 finalizer (Steele et al.): a strong 64-bit mixer. */
std::uint64_t
splitMix64Finalize(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

} // namespace

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream)
{
    // Advance the base by the SplitMix64 gamma per stream index, then
    // finalize twice so adjacent streams share no low-bit structure.
    const std::uint64_t mixed =
        base + (stream + 1) * 0x9E3779B97F4A7C15ULL;
    return splitMix64Finalize(splitMix64Finalize(mixed));
}

std::uint64_t
Xorshift64Star::nextBelow(std::uint64_t bound)
{
    if (bound == 0)
        fatal("nextBelow() with a zero bound");
    return next() % bound;
}

double
Xorshift64Star::nextNormal()
{
    if (have_spare_) {
        have_spare_ = false;
        return spare_;
    }
    // Box-Muller; avoid log(0) by nudging u1 away from zero.
    double u1 = nextUnit();
    if (u1 < 1e-300)
        u1 = 1e-300;
    const double u2 = nextUnit();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * 3.14159265358979323846 * u2;
    spare_ = radius * std::sin(angle);
    have_spare_ = true;
    return radius * std::cos(angle);
}

double
Xorshift64Star::nextNormal(double mean, double stddev)
{
    return mean + stddev * nextNormal();
}

double
Xorshift64Star::nextLogNormal(double median, double sigma_factor)
{
    if (median <= 0.0 || sigma_factor <= 1.0)
        fatal("nextLogNormal() needs median > 0 and sigma factor > 1");
    return median * std::exp(std::log(sigma_factor) * nextNormal());
}

} // namespace act::util
