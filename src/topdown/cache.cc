#include "topdown/cache.h"

#include <bit>

#include "topdown/uop.h"

namespace alberta::topdown {

namespace {

int
log2Exact(std::uint64_t value)
{
    support::fatalIf(!std::has_single_bit(value),
                     "cache geometry must be a power of two; got ", value);
    return std::countr_zero(value);
}

} // namespace

Cache::Cache(std::uint64_t bytes, int ways, int line_bytes)
    : ways_(ways), lineShift_(log2Exact(line_bytes))
{
    support::fatalIf(ways <= 0, "cache needs at least one way");
    const std::uint64_t lines = bytes / line_bytes;
    support::fatalIf(lines % ways != 0, "cache bytes not divisible into ",
                     ways, " ways");
    const std::uint64_t sets = lines / ways;
    log2Exact(sets); // validate power of two
    setMask_ = sets - 1;
    tags_.assign(lines, ~0ULL);
    lru_.assign(lines, 0);
    mru_.assign(sets, 0);
}

bool
Cache::accessSlow(std::uint64_t line, std::uint64_t set,
                  std::size_t base)
{
    std::size_t victim = base;
    std::uint64_t oldest = ~0ULL;
    for (int w = 0; w < ways_; ++w) {
        const std::size_t idx = base + w;
        if (tags_[idx] == line) {
            lru_[idx] = stamp_;
            mru_[set] = static_cast<std::uint8_t>(w);
            return true;
        }
        if (lru_[idx] < oldest) {
            oldest = lru_[idx];
            victim = idx;
        }
    }
    ++misses_;
    tags_[victim] = line;
    lru_[victim] = stamp_;
    mru_[set] = static_cast<std::uint8_t>(victim - base);
    return false;
}

std::uint64_t
Cache::digest(std::uint64_t seed) const
{
    seed = digestFold(seed, stamp_);
    seed = digestFold(seed, misses_);
    for (const std::uint64_t tag : tags_)
        seed = digestFold(seed, tag);
    for (const std::uint64_t stamp : lru_)
        seed = digestFold(seed, stamp);
    for (const std::uint8_t way : mru_)
        seed = digestFold(seed, way);
    return seed;
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), ~0ULL);
    std::fill(lru_.begin(), lru_.end(), 0);
    std::fill(mru_.begin(), mru_.end(), 0);
    misses_ = 0;
    stamp_ = 0;
}

MemoryHierarchy::MemoryHierarchy()
    : l1d_(32 * 1024, 8, 64),
      l1i_(32 * 1024, 8, 64),
      l2_(256 * 1024, 8, 64),
      l3_(2 * 1024 * 1024, 16, 64)
{
}

double
MemoryHierarchy::beyondL1(std::uint64_t addr)
{
    if (l2_.access(addr))
        return lat_.l2;
    if (l3_.access(addr))
        return lat_.l3;
    return lat_.memory;
}

std::uint64_t
MemoryHierarchy::digest(std::uint64_t seed) const
{
    seed = l1d_.digest(seed);
    seed = l1i_.digest(seed);
    seed = l2_.digest(seed);
    return l3_.digest(seed);
}

void
MemoryHierarchy::reset()
{
    l1d_.reset();
    l1i_.reset();
    l2_.reset();
    l3_.reset();
}

} // namespace alberta::topdown
