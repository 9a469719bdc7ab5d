/**
 * @file
 * Open-addressing hash map from 64-bit keys to small trivially-copyable
 * values, used on the model's hot paths (per-site branch profiles,
 * indirect-target tables) where the pointer chasing and per-node
 * allocations of `std::unordered_map` dominate the lookup cost.
 *
 * Properties the model relies on:
 *  - deterministic: identical insert sequences produce identical table
 *    states (growth points, probe order, iteration order);
 *  - no erase: references returned by @ref slot stay valid until the
 *    next insert triggers a rehash;
 *  - a built-in last-key memo, so the common repeat-site lookup (tight
 *    loops hammering one branch site) skips probing entirely.
 *
 * Entries interleave key and value with key 0 reserved as the
 * empty-slot marker (no separate occupancy flag), so a lookup touches
 * exactly one entry when the probe lands directly — the common case at
 * the map's low post-growth load factor. A real key equal to the
 * marker is held in a dedicated side slot.
 */
#ifndef ALBERTA_TOPDOWN_FLATMAP_H
#define ALBERTA_TOPDOWN_FLATMAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rng.h"

namespace alberta::topdown {

/** Flat hash map keyed by `uint64_t`; see the file comment. */
template <typename Value>
class FlatKeyMap
{
  public:
    FlatKeyMap() { entries_.resize(kInitialSlots); }

    /**
     * Find-or-insert the entry for @p key; a fresh entry holds a
     * value-initialized `Value`. The reference is valid until the next
     * insertion (a rehash moves entries).
     *
     * @param inserted when non-null, set to whether the key was absent
     */
    Value &
    slot(std::uint64_t key, bool *inserted = nullptr)
    {
        if (key == lastKey_ && lastIndex_ != kNoIndex) {
            if (inserted)
                *inserted = false;
            return lastIndex_ == kZeroIndex ? zeroValue_
                                            : entries_[lastIndex_].value;
        }
        if (key == kEmptyKey)
            return zeroSlot(inserted);
        return probe(key, inserted);
    }

    /** Number of distinct keys stored. */
    std::size_t size() const { return count_ + (hasZero_ ? 1 : 0); }

    /** True when no keys are stored. */
    bool empty() const { return size() == 0; }

    /** Remove all entries (capacity is kept). */
    void
    clear()
    {
        for (auto &e : entries_) {
            if (e.key != kEmptyKey) {
                e.key = kEmptyKey;
                e.value = Value{};
            }
        }
        count_ = 0;
        hasZero_ = false;
        zeroValue_ = Value{};
        lastIndex_ = kNoIndex;
    }

    /** Visit every (key, value) pair; order is deterministic for
     * identical insert sequences but otherwise unspecified. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (hasZero_)
            fn(kEmptyKey, zeroValue_);
        for (const auto &e : entries_) {
            if (e.key != kEmptyKey)
                fn(e.key, e.value);
        }
    }

  private:
    struct Entry
    {
        std::uint64_t key = kEmptyKey;
        Value value{};
    };

    static constexpr std::uint64_t kEmptyKey = 0;
    static constexpr std::size_t kInitialSlots = 1024; // power of two
    static constexpr std::size_t kNoIndex = ~std::size_t(0);
    static constexpr std::size_t kZeroIndex = kNoIndex - 1;

    /** The empty-marker key's dedicated side slot. */
    Value &
    zeroSlot(bool *inserted)
    {
        if (inserted)
            *inserted = !hasZero_;
        if (!hasZero_) {
            hasZero_ = true;
            zeroValue_ = Value{};
        }
        lastKey_ = kEmptyKey;
        lastIndex_ = kZeroIndex;
        return zeroValue_;
    }

    /** Probe-or-insert tail of slot(); @p key must not be the
     * marker. */
    Value &
    probe(std::uint64_t key, bool *inserted)
    {
        std::size_t idx = findIndex(key);
        if (entries_[idx].key == kEmptyKey) {
            // 3/4 max load, measured, not folklore: halving it shortens
            // probe chains but doubles the table footprint, and for the
            // big indirect-target maps (tens of thousands of keys) the
            // extra cache misses cost more than the probes saved.
            if ((count_ + 1) * 4 > entries_.size() * 3) {
                rehash(entries_.size() * 2);
                idx = findIndex(key);
            }
            entries_[idx].key = key;
            ++count_;
            if (inserted)
                *inserted = true;
        } else if (inserted) {
            *inserted = false;
        }
        lastKey_ = key;
        lastIndex_ = idx;
        return entries_[idx].value;
    }

    /** Index of @p key's slot, or of the empty slot where it belongs.
     * @p key must not be the empty marker. */
    std::size_t
    findIndex(std::uint64_t key) const
    {
        const std::size_t mask = entries_.size() - 1;
        std::size_t idx = support::mix64(key) & mask;
        while (entries_[idx].key != kEmptyKey && entries_[idx].key != key)
            idx = (idx + 1) & mask;
        return idx;
    }

    void
    rehash(std::size_t new_slots)
    {
        std::vector<Entry> old;
        old.swap(entries_);
        entries_.resize(new_slots);
        lastIndex_ = kNoIndex;
        for (const auto &e : old) {
            if (e.key == kEmptyKey)
                continue;
            entries_[findIndex(e.key)] = e;
        }
    }

    std::vector<Entry> entries_;
    std::size_t count_ = 0;
    bool hasZero_ = false;
    Value zeroValue_{};
    std::uint64_t lastKey_ = kEmptyKey;
    std::size_t lastIndex_ = kNoIndex;
};

} // namespace alberta::topdown

#endif // ALBERTA_TOPDOWN_FLATMAP_H
