#include "obs/obs.h"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "support/check.h"
#include "support/json.h"

namespace alberta::obs {

// --------------------------------------------------------------------
// Metrics

void
Histogram::record(double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
}

std::uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

double
Histogram::sum() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sum_;
}

double
Histogram::min() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return min_;
}

double
Histogram::max() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return max_;
}

double
Histogram::mean() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::vector<MetricSample>
Registry::snapshot() const
{
    std::vector<MetricSample> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_) {
        MetricSample s;
        s.name = name;
        s.kind = "counter";
        s.count = counter->value();
        s.value = static_cast<double>(s.count);
        out.push_back(std::move(s));
    }
    for (const auto &[name, histogram] : histograms_) {
        MetricSample s;
        s.name = name;
        s.kind = "histogram";
        s.count = histogram->count();
        s.sum = histogram->sum();
        s.min = histogram->min();
        s.max = histogram->max();
        s.value = histogram->mean();
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
    return out;
}

// --------------------------------------------------------------------
// JSON-lines sink

JsonLinesSink::JsonLinesSink(const std::string &path)
{
    auto file = std::make_unique<std::ofstream>(path);
    support::fatalIf(!*file, "obs: cannot open trace file '", path,
                     "'");
    os_ = file.get();
    owned_ = std::move(file);
}

JsonLinesSink::JsonLinesSink(std::ostream &os) : os_(&os) {}

JsonLinesSink::~JsonLinesSink() = default;

void
JsonLinesSink::record(const SpanRecord &span)
{
    using support::jsonNumber;
    using support::jsonQuote;
    std::string line;
    line.reserve(128);
    line += "{\"id\":";
    line += std::to_string(span.id);
    line += ",\"parent\":";
    line += std::to_string(span.parent);
    line += ",\"name\":";
    line += jsonQuote(span.name);
    line += ",\"cat\":";
    line += jsonQuote(span.category);
    line += ",\"start_s\":";
    line += jsonNumber(span.startSeconds);
    line += ",\"dur_s\":";
    line += jsonNumber(span.durationSeconds);
    for (const auto &[key, value] : span.attrs) {
        line += ',';
        line += jsonQuote(key);
        line += ':';
        line += value; // pre-encoded JSON value (see Span::note)
    }
    line += "}\n";
    std::lock_guard<std::mutex> lock(mutex_);
    *os_ << line;
    spans_.fetch_add(1, std::memory_order_relaxed);
}

void
JsonLinesSink::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    os_->flush();
}

// --------------------------------------------------------------------
// Tracer + Span

double
Tracer::sinceEpoch() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

namespace {

/** Innermost active span per (thread, tracer): implicit parenting. */
struct ThreadSpanStack
{
    std::vector<std::pair<const Tracer *, std::uint64_t>> frames;
};

thread_local ThreadSpanStack tlSpans;

} // namespace

Span::Span(Tracer *tracer, std::string_view name,
           std::string_view category, std::uint64_t parent)
{
    if (!tracer || !tracer->enabled())
        return;
    tracer_ = tracer;
    record_.id = tracer->nextId();
    if (parent == kInheritParent) {
        record_.parent = 0;
        for (auto it = tlSpans.frames.rbegin();
             it != tlSpans.frames.rend(); ++it) {
            if (it->first == tracer) {
                record_.parent = it->second;
                break;
            }
        }
    } else {
        record_.parent = parent;
    }
    record_.name.assign(name);
    record_.category.assign(category);
    record_.startSeconds = tracer->sinceEpoch();
    tlSpans.frames.emplace_back(tracer, record_.id);
}

void
Span::note(std::string_view key, std::string_view value)
{
    if (!tracer_)
        return;
    record_.attrs.emplace_back(std::string(key),
                               support::jsonQuote(value));
}

void
Span::note(std::string_view key, std::uint64_t value)
{
    if (!tracer_)
        return;
    record_.attrs.emplace_back(std::string(key),
                               std::to_string(value));
}

void
Span::note(std::string_view key, double value)
{
    if (!tracer_)
        return;
    record_.attrs.emplace_back(std::string(key),
                               support::jsonNumber(value));
}

void
Span::finish()
{
    if (!tracer_)
        return;
    record_.durationSeconds =
        tracer_->sinceEpoch() - record_.startSeconds;
    // Pop this span's frame. Spans normally finish LIFO per thread;
    // out-of-order finishes just search down the stack.
    auto &frames = tlSpans.frames;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
        if (it->first == tracer_ && it->second == record_.id) {
            frames.erase(std::next(it).base());
            break;
        }
    }
    if (TraceSink *sink = tracer_->sink())
        sink->record(record_);
    tracer_ = nullptr;
}

} // namespace alberta::obs
