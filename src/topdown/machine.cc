#include "topdown/machine.h"

#include <algorithm>
#include <bit>

#include "support/check.h"

namespace alberta::topdown {

namespace {

std::uint64_t
foldSlots(std::uint64_t seed, const SlotCounts &slots)
{
    seed = digestFold(seed, std::bit_cast<std::uint64_t>(slots.frontend));
    seed = digestFold(seed, std::bit_cast<std::uint64_t>(slots.backend));
    seed = digestFold(seed, std::bit_cast<std::uint64_t>(slots.badspec));
    return digestFold(seed,
                      std::bit_cast<std::uint64_t>(slots.retiring));
}

} // namespace

Machine::Machine(const MachineConfig &config) : config_(config)
{
    methods_.resize(1); // method 0 = unattributed work
    current_ = &methods_[0];
}

void
Machine::reset()
{
    hierarchy_.reset();
    predictor_.reset();
    methods_.assign(1, SlotCounts{});
    current_ = &methods_[0];
    total_ = SlotCounts{};
    method_ = 0;
    stableKey_ = 0;
    codeBase_ = 0;
    codeBytes_ = 4096;
    codeCursor_ = 0;
    lastFetchLine_ = ~0ULL;
    fastCodeBytes_ = 0;
    retired_ = 0;
    profiles_.clear();
    intervalUops_ = 0;
    nextBoundary_ = 0;
    lastSnapshot_ = SlotCounts{};
    intervals_.clear();
    divert_ = false;
}

void
Machine::setMethod(std::uint32_t id, std::uint32_t code_bytes,
                   std::uint64_t stable_key)
{
    if (id >= methods_.size())
        methods_.resize(id + 1);
    method_ = id;
    current_ = &methods_[id];
    stableKey_ = stable_key == ~0ULL ? id : stable_key;
    double scaled = code_bytes;
    if (layout_) {
        const auto it = layout_->scale.find(stableKey_);
        if (it != layout_->scale.end())
            scaled *= it->second;
    }
    codeBytes_ = std::max<std::uint32_t>(
        64, static_cast<std::uint32_t>(scaled));
    // Methods live in disjoint 16 MiB code regions; tags always differ.
    codeBase_ = (static_cast<std::uint64_t>(id) + 1) << 24;
    codeCursor_ = 0;
    fastCodeBytes_ = 0; // slow path re-establishes the line memo
}

void
Machine::advanceCodeSlow(std::uint64_t bytes)
{
    // Each uop occupies ~4 bytes of code; fetch one line per 64 bytes,
    // skipping the line fetched last: no other fetch has happened since,
    // so it is still resident and most-recently-used — re-accessing it
    // would be a guaranteed hit that cannot change any LRU decision.
    while (bytes > 0) {
        if (codeCursor_ >= codeBytes_)
            codeCursor_ = 0; // fast path may have parked on the wrap
        const std::uint64_t step =
            std::min<std::uint64_t>(bytes, codeBytes_ - codeCursor_);
        const std::uint32_t firstLine = codeCursor_ >> 6;
        const std::uint32_t lastLine =
            static_cast<std::uint32_t>((codeCursor_ + step - 1) >> 6);
        for (std::uint32_t line = firstLine; line <= lastLine; ++line) {
            const std::uint64_t lineAddr =
                codeBase_ + (static_cast<std::uint64_t>(line) << 6);
            if (lineAddr == lastFetchLine_)
                continue;
            lastFetchLine_ = lineAddr;
            const double extra = hierarchy_.fetch(lineAddr);
            if (extra > 0.0) {
                chargeFrontend(extra * config_.issueWidth *
                               config_.fetchStallFactor);
            }
        }
        codeCursor_ =
            static_cast<std::uint32_t>((codeCursor_ + step) % codeBytes_);
        bytes -= step;
    }
    // Refill the fast-path budget: bytes consumable before the cursor
    // leaves the just-fetched line or wraps the code footprint.
    const std::uint64_t cursorLine =
        codeBase_ + (static_cast<std::uint64_t>(codeCursor_ >> 6) << 6);
    if (cursorLine == lastFetchLine_) {
        fastCodeBytes_ = std::min<std::uint32_t>(
            64 - (codeCursor_ & 63), codeBytes_ - codeCursor_);
    } else {
        fastCodeBytes_ = 0;
    }
}

void
Machine::recordIntervals(std::uint64_t uops_per_interval)
{
    support::fatalIf(retired_ != 0 && uops_per_interval != 0,
                     "machine: interval recording must be enabled "
                     "before execution starts");
    intervalUops_ = uops_per_interval;
    nextBoundary_ = uops_per_interval;
    lastSnapshot_ = SlotCounts{};
    intervals_.clear();
    divert_ = uops_per_interval != 0;
}

void
Machine::opsWithIntervals(OpKind k, std::uint64_t n)
{
    // Chunk the bulk report at interval boundaries so one ops(k, n)
    // call is indistinguishable from n single-uop reports: one interval
    // is emitted per boundary crossed, with this call's slots (and its
    // code-fetch stalls) attributed to the intervals they fall in.
    while (n > 0) {
        const std::uint64_t room = nextBoundary_ - retired_;
        const std::uint64_t chunk = n < room ? n : room;
        account(k, chunk);
        advanceCode(chunk * 4);
        if (retired_ == nextBoundary_) {
            SlotCounts delta = total_;
            delta -= lastSnapshot_;
            intervals_.push_back(delta);
            lastSnapshot_ = total_;
            nextBoundary_ += intervalUops_;
        }
        n -= chunk;
    }
}

void
Machine::stream(OpKind kind, std::uint64_t addr, std::uint64_t count,
                std::uint32_t stride)
{
    if (count == 0)
        return;
    support::panicIf(kind != OpKind::Load && kind != OpKind::Store,
                     "stream requires Load or Store");
    ops(kind, count);
    // One hierarchy access per line in the spanned byte range; the
    // per-line extra latencies are summed and charged as one batch.
    const std::uint64_t bytes = count * stride;
    const std::uint64_t firstLine = addr >> 6;
    const std::uint64_t lastLine = (addr + (bytes ? bytes - 1 : 0)) >> 6;
    const double extra = hierarchy_.dataRange(firstLine, lastLine);
    if (extra > 0.0) {
        chargeBackend(extra * config_.issueWidth *
                      config_.memStallFactor);
    }
}

bool
Machine::branch(std::uint32_t site, bool taken)
{
    ops(OpKind::Branch, 1);
    const std::uint64_t key = siteKey(site);
    if (profiling_) {
        SiteProfile &prof = profiles_.slot(key);
        ++prof.total;
        if (taken)
            ++prof.taken;
    }
    const bool correct = predictor_.conditional(key, taken);
    if (!correct) {
        chargeBadspec(config_.mispredictWrongPath * config_.issueWidth);
        chargeFrontend(config_.mispredictRedirect * config_.issueWidth);
    } else if (taken) {
        chargeFrontend(config_.takenBranchFrontend);
    }
    return taken;
}

void
Machine::indirect(std::uint32_t site, std::uint64_t target)
{
    ops(OpKind::Branch, 1);
    const bool correct = predictor_.indirect(siteKey(site), target);
    if (!correct) {
        chargeBadspec(config_.mispredictWrongPath * config_.issueWidth);
        chargeFrontend(config_.mispredictRedirect * config_.issueWidth);
    } else {
        chargeFrontend(config_.takenBranchFrontend);
    }
}

std::uint64_t
Machine::stateDigest() const
{
    std::uint64_t seed = 0x5eed5eed5eed5eedULL;
    seed = hierarchy_.digest(seed);
    seed = predictor_.digest(seed);
    for (const SlotCounts &m : methods_)
        seed = foldSlots(seed, m);
    seed = foldSlots(seed, total_);
    seed = digestFold(seed, method_);
    seed = digestFold(seed, stableKey_);
    seed = digestFold(seed, codeBase_);
    seed = digestFold(seed, codeBytes_);
    seed = digestFold(seed, codeCursor_);
    seed = digestFold(seed, retired_);
    seed = digestFold(seed, lastFetchLine_);
    seed = digestFold(seed, fastCodeBytes_);
    seed = digestFold(seed, profiling_ ? 1 : 0);
    profiles_.forEach(
        [&seed](std::uint64_t key, const SiteProfile &p) {
            seed = digestFold(seed, key);
            seed = digestFold(seed, p.taken);
            seed = digestFold(seed, p.total);
        });
    seed = digestFold(seed, intervalUops_);
    seed = digestFold(seed, nextBoundary_);
    seed = foldSlots(seed, lastSnapshot_);
    for (const SlotCounts &interval : intervals_)
        seed = foldSlots(seed, interval);
    return seed;
}

std::unordered_map<std::uint64_t, SiteProfile>
Machine::siteProfiles() const
{
    std::unordered_map<std::uint64_t, SiteProfile> out;
    out.reserve(profiles_.size());
    profiles_.forEach([&out](std::uint64_t key, const SiteProfile &p) {
        out.emplace(key, p);
    });
    return out;
}

stats::TopdownRatios
Machine::ratios() const
{
    const double total = total_.total();
    stats::TopdownRatios r;
    if (total <= 0.0)
        return r;
    r.frontend = total_.frontend / total;
    r.backend = total_.backend / total;
    r.badspec = total_.badspec / total;
    r.retiring = total_.retiring / total;
    return r;
}

} // namespace alberta::topdown
