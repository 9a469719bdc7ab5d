/**
 * @file
 * Run-session observability: metrics and span tracing for the
 * characterization pipeline.
 *
 * The layer has three parts:
 *
 *   - a Registry of named Counters and Histograms that the engine
 *     components (executor, result cache, characterization driver)
 *     bump as they work;
 *   - span-style tracing: one Span per model run, refrate repetition,
 *     cache-probe batch, and summarization stage, with parent/child
 *     nesting and steady-clock durations; and
 *   - pluggable TraceSinks. The shipped sink writes JSON lines; a
 *     Tracer with no sink is the null sink, and every Span entry point
 *     collapses to a single branch in that case.
 *
 * Observability is strictly read-only with respect to the model: spans
 * and counters record what happened, they never feed back into it, so
 * model outputs are bit-identical with tracing on or off.
 */
#ifndef ALBERTA_OBS_OBS_H
#define ALBERTA_OBS_OBS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace alberta::obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Running count/sum/min/max over recorded samples. */
class Histogram
{
  public:
    void record(double value);

    std::uint64_t count() const;
    double sum() const;
    double min() const; //!< 0 when empty
    double max() const; //!< 0 when empty
    double mean() const; //!< 0 when empty

  private:
    mutable std::mutex mutex_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** One row of a metrics snapshot (see Registry::snapshot). */
struct MetricSample
{
    std::string name;
    /** "counter" | "histogram", or "gauge" for the values
     * Engine::metricsSnapshot reads at snapshot time. */
    std::string kind;
    double value = 0.0; //!< counter/gauge value; histogram mean
    std::uint64_t count = 0; //!< histogram sample count
    double sum = 0.0;  //!< histogram only
    double min = 0.0;  //!< histogram only
    double max = 0.0;  //!< histogram only
};

/**
 * Named metrics, created on first use and stable for the registry's
 * lifetime (references returned here never dangle or move). Creation
 * takes a lock; bumping an already-obtained counter is lock-free.
 */
class Registry
{
  public:
    Counter &counter(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** All metrics, sorted by name. */
    std::vector<MetricSample> snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** One finished span, as delivered to a TraceSink. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::string name;
    std::string category;
    double startSeconds = 0.0;    //!< offset from the tracer's epoch
    double durationSeconds = 0.0; //!< steady-clock span duration
    /** Attributes; values are pre-encoded JSON scalars (strings carry
     * their quotes), so sinks can splice them into output verbatim. */
    std::vector<std::pair<std::string, std::string>> attrs;
};

/** Destination for finished spans. Implementations must be
 * thread-safe: spans finish on executor workers concurrently. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(const SpanRecord &span) = 0;
    virtual void flush() {}
};

/**
 * JSON-lines trace sink: one JSON object per finished span, written in
 * completion order. Construct with a path (fatal on open failure) or
 * with a caller-owned stream (tests).
 */
class JsonLinesSink : public TraceSink
{
  public:
    explicit JsonLinesSink(const std::string &path);
    explicit JsonLinesSink(std::ostream &os);
    ~JsonLinesSink() override;

    void record(const SpanRecord &span) override;
    void flush() override;

    std::uint64_t spansWritten() const { return spans_.load(); }

  private:
    std::mutex mutex_;
    std::unique_ptr<std::ostream> owned_;
    std::ostream *os_ = nullptr;
    std::atomic<std::uint64_t> spans_{0};
};

/**
 * Span factory. A default-constructed (or sink-less) Tracer is the
 * null sink: Spans opened against it are inactive and cost one branch.
 *
 * Span ids are process-unique per tracer; the implicit parent of a new
 * span is the innermost active span previously opened *on the same
 * thread* against the same tracer, so work fanned out to executor
 * workers must pass the parent id explicitly (see Span).
 */
class Tracer
{
  public:
    Tracer() = default;
    explicit Tracer(TraceSink *sink) : sink_(sink) {}

    bool enabled() const { return sink_ != nullptr; }
    TraceSink *sink() const { return sink_; }

    /** Replace the sink (null disables tracing). */
    void
    setSink(TraceSink *sink)
    {
        sink_ = sink;
    }

    /** Seconds elapsed on the steady clock since the tracer's epoch. */
    double sinceEpoch() const;

  private:
    friend class Span;

    std::uint64_t
    nextId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    TraceSink *sink_ = nullptr;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> nextId_{0};
};

/**
 * RAII span. Opening against a null/disabled tracer yields an inactive
 * span: every member function short-circuits on one branch, so hot
 * paths can open spans unconditionally.
 *
 * Parent selection: by default a span inherits the innermost active
 * span opened on the same thread (kInheritParent); pass an explicit id
 * (e.g. the root span's, captured before fanning work out to a pool)
 * or kNoParent to override.
 */
class Span
{
  public:
    /** Inherit the calling thread's innermost active span. */
    static constexpr std::uint64_t kInheritParent = ~0ULL;
    /** Force a root span. */
    static constexpr std::uint64_t kNoParent = 0;

    Span() = default; //!< inactive
    Span(Tracer *tracer, std::string_view name,
         std::string_view category,
         std::uint64_t parent = kInheritParent);
    ~Span() { finish(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    bool active() const { return tracer_ != nullptr; }
    /** This span's id (0 when inactive) — pass as an explicit parent. */
    std::uint64_t id() const { return record_.id; }

    /** Attach a key/value attribute (no-op when inactive). */
    void note(std::string_view key, std::string_view value);
    void note(std::string_view key, std::uint64_t value);
    void note(std::string_view key, double value);

    /** Close the span now and deliver it to the sink (idempotent). */
    void finish();

  private:
    Tracer *tracer_ = nullptr;
    SpanRecord record_;
};

} // namespace alberta::obs

#endif // ALBERTA_OBS_OBS_H
