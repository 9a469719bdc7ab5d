#include "topdown/branch.h"

#include "topdown/uop.h"

namespace alberta::topdown {

BranchPredictor::BranchPredictor()
{
    counters_.assign(kTableSize, 2); // weakly taken
}

bool
BranchPredictor::indirect(std::uint64_t site, std::uint64_t target)
{
    // Combine the site with recent target history so repeating
    // dispatch sequences (interpreter loops, event kinds) predict.
    // No pre-mixing: equality of keys (all that matters for outcomes)
    // is unchanged by a bijective hash, and the table mixes for probe
    // distribution itself.
    const std::uint64_t key =
        site ^ indirectHistory_ * 0x9e3779b97f4a7c15ULL;
    bool inserted = false;
    std::uint64_t &entry = targets_.slot(key, &inserted);
    // Whether the last target matched is data the host predictor
    // cannot learn; keep the hot path branch-free (flag ops, not
    // jumps). A fresh slot reads as a mispredict, same as before.
    const bool correct = !inserted && entry == target;
    entry = target;
    indirectHistory_ =
        ((indirectHistory_ << 4) ^ support::mix64(target)) & 0xffff;
    mispredicts_ += static_cast<std::uint64_t>(!correct);
    return correct;
}

std::uint64_t
BranchPredictor::digest(std::uint64_t seed) const
{
    for (const std::uint8_t counter : counters_)
        seed = digestFold(seed, counter);
    seed = digestFold(seed, history_);
    seed = digestFold(seed, indirectHistory_);
    seed = digestFold(seed, conditionals_);
    seed = digestFold(seed, mispredicts_);
    targets_.forEach([&seed](std::uint64_t key, std::uint64_t target) {
        seed = digestFold(seed, key);
        seed = digestFold(seed, target);
    });
    return seed;
}

void
BranchPredictor::reset()
{
    counters_.assign(kTableSize, 2);
    targets_.clear();
    history_ = 0;
    indirectHistory_ = 0;
    conditionals_ = 0;
    mispredicts_ = 0;
}

} // namespace alberta::topdown
