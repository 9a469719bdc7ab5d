/**
 * @file
 * Branch direction prediction for the top-down model: a gshare predictor
 * with an optional table of static FDO hints, plus a last-target
 * predictor for indirect branches (virtual dispatch, VM interpreters).
 *
 * The conditional predict-and-update path lives in the header (it runs
 * once per modelled branch), and the indirect-target table is a flat
 * open-addressing map instead of `std::unordered_map` — same outcomes,
 * no per-node allocation or pointer chasing.
 */
#ifndef ALBERTA_TOPDOWN_BRANCH_H
#define ALBERTA_TOPDOWN_BRANCH_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/rng.h"
#include "topdown/flatmap.h"

namespace alberta::topdown {

/** Static per-site branch hints produced by the FDO optimizer. */
struct BranchHints
{
    /**
     * Site key -> hinted direction. A hinted site bypasses dynamic
     * prediction entirely, modelling a compiler that laid out the code
     * so the hinted direction is the fall-through path.
     */
    std::unordered_map<std::uint64_t, bool> direction;
};

/** gshare conditional-branch predictor (12-bit history, 2-bit counters). */
class BranchPredictor
{
  public:
    BranchPredictor();

    /**
     * Predict and update for one conditional branch.
     *
     * @param site stable identifier of the static branch site
     * @param taken the actual outcome
     * @return true if the prediction was correct
     */
    bool
    conditional(std::uint64_t site, bool taken)
    {
        ++conditionals_;

        if (hints_) {
            const auto it = hints_->direction.find(site);
            if (it != hints_->direction.end()) {
                // Static hint: no dynamic state consulted or trained,
                // the compiler fixed the layout. History still records
                // the outcome so unhinted branches see a consistent
                // context.
                history_ = ((history_ << 1) | (taken ? 1 : 0)) &
                           (kTableSize - 1);
                const bool correct = it->second == taken;
                if (!correct)
                    ++mispredicts_;
                return correct;
            }
        }

        // The site hash decides which counter each branch trains, so
        // the model signature pins it.
        const std::uint64_t index =
            (support::mix64(site) ^ history_) & (kTableSize - 1);
        std::uint8_t &counter = counters_[index];
        const bool predicted = counter >= 2;
        if (taken) {
            if (counter < 3)
                ++counter;
        } else {
            if (counter > 0)
                --counter;
        }
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & (kTableSize - 1);
        const bool correct = predicted == taken;
        if (!correct)
            ++mispredicts_;
        return correct;
    }

    /**
     * Predict and update for one indirect branch via a last-target
     * table keyed by site.
     *
     * @return true if the predicted target matched @p target
     */
    bool indirect(std::uint64_t site, std::uint64_t target);

    /** Install (or clear, with nullptr) FDO branch hints. */
    void setHints(const BranchHints *hints) { hints_ = hints; }

    /** Forget all learned state (hints persist). */
    void reset();

    /** Conditional branches observed. */
    std::uint64_t conditionals() const { return conditionals_; }
    /** Conditional mispredictions observed. */
    std::uint64_t mispredicts() const { return mispredicts_; }

    /**
     * Fold the full learned state — gshare counters, histories,
     * indirect-target table, statistics — into @p seed. Equal digests
     * mean identical predictions on every future branch sequence
     * (installed hints are configuration, not learned state, and are
     * not folded).
     */
    std::uint64_t digest(std::uint64_t seed) const;

  private:
    /** gshare geometry: 12-bit global history indexing 4096 2-bit
     * counters. */
    static constexpr int kHistoryBits = 12;
    static constexpr std::size_t kTableSize = std::size_t(1)
                                              << kHistoryBits;

    std::vector<std::uint8_t> counters_;
    /** Indirect-target table indexed by site ^ folded history, so
     * interpreter dispatch loops with repeating opcode patterns are
     * predictable (ITTAGE-like behaviour). */
    FlatKeyMap<std::uint64_t> targets_;
    std::uint64_t history_ = 0;
    std::uint64_t indirectHistory_ = 0;
    std::uint64_t conditionals_ = 0;
    std::uint64_t mispredicts_ = 0;
    const BranchHints *hints_ = nullptr;
};

} // namespace alberta::topdown

#endif // ALBERTA_TOPDOWN_BRANCH_H
