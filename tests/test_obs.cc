/**
 * @file
 * Tests for the observability layer: metric primitives, registry
 * snapshots, span nesting and parenting, the null-sink fast path,
 * counter aggregation across executor worker threads, and the
 * well-formedness of the JSON-lines trace output.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "runtime/engine.h"
#include "runtime/executor.h"
#include "collect_sink.h"

namespace {

using namespace alberta;
using tests::CollectSink;

TEST(Metrics, CounterGaugeHistogramBasics)
{
    obs::Counter c;
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);

    obs::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    h.record(2.0);
    h.record(6.0);
    h.record(4.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 12.0);
    EXPECT_EQ(h.min(), 2.0);
    EXPECT_EQ(h.max(), 6.0);
    EXPECT_EQ(h.mean(), 4.0);

    // Gauges are not stored: the engine reads them when it snapshots.
    runtime::Engine engine(3);
    std::size_t gauges = 0;
    for (const obs::MetricSample &s : engine.metricsSnapshot()) {
        if (s.kind != "gauge")
            continue;
        ++gauges;
        if (s.name == "executor.jobs")
            EXPECT_EQ(s.value, 3.0);
        else
            EXPECT_EQ(s.name, "cache.entries");
    }
    EXPECT_EQ(gauges, 2u);
}

TEST(Metrics, RegistryReturnsStableReferencesAndSortedSnapshot)
{
    obs::Registry registry;
    obs::Counter &c1 = registry.counter("zeta.count");
    obs::Counter &c2 = registry.counter("zeta.count");
    EXPECT_EQ(&c1, &c2); // same name -> same metric
    c1.add(7);

    registry.counter("alpha.count").add(2);
    registry.histogram("mid.hist").record(3.0);

    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.size(), 3u);
    EXPECT_EQ(snapshot[0].name, "alpha.count");
    EXPECT_EQ(snapshot[0].kind, "counter");
    EXPECT_EQ(snapshot[0].value, 2.0);
    EXPECT_EQ(snapshot[1].name, "mid.hist");
    EXPECT_EQ(snapshot[1].kind, "histogram");
    EXPECT_EQ(snapshot[1].count, 1u);
    EXPECT_EQ(snapshot[2].name, "zeta.count");
    EXPECT_EQ(snapshot[2].kind, "counter");
    EXPECT_EQ(snapshot[2].value, 7.0);
}

TEST(Metrics, CountersAggregateAcrossExecutorThreads)
{
    obs::Registry registry;
    obs::Counter &tasks = registry.counter("test.tasks");
    runtime::Executor executor(4);
    executor.parallelFor(1000, [&](std::size_t) { tasks.add(); });
    EXPECT_EQ(tasks.value(), 1000u);

    // The executor's own hook counts batches and tasks the same way.
    obs::Tracer tracer;
    executor.attachObservability(&tracer, &registry);
    executor.parallelFor(64, [](std::size_t) {});
    executor.parallelFor(36, [](std::size_t) {});
    EXPECT_EQ(registry.counter("executor.batches").value(), 2u);
    EXPECT_EQ(registry.counter("executor.tasks").value(), 100u);
}

TEST(Span, InactiveAgainstNullOrDisabledTracer)
{
    obs::Span null(nullptr, "x", "y");
    EXPECT_FALSE(null.active());
    EXPECT_EQ(null.id(), 0u);
    null.note("k", std::uint64_t{1}); // all no-ops
    null.finish();

    obs::Tracer sinkless; // the null sink
    obs::Span disabled(&sinkless, "x", "y");
    EXPECT_FALSE(disabled.active());
    EXPECT_EQ(disabled.id(), 0u);
}

TEST(Span, NestingInfersParentOnOneThread)
{
    CollectSink sink;
    obs::Tracer tracer(&sink);
    {
        obs::Span outer(&tracer, "outer", "test");
        EXPECT_TRUE(outer.active());
        {
            obs::Span inner(&tracer, "inner", "test");
            obs::Span innermost(&tracer, "innermost", "test");
            EXPECT_NE(inner.id(), outer.id());
            EXPECT_NE(innermost.id(), inner.id());
        }
        obs::Span sibling(&tracer, "sibling", "test");
        (void)sibling;
    }
    const auto *outer = sink.find("outer");
    const auto *inner = sink.find("inner");
    const auto *innermost = sink.find("innermost");
    const auto *sibling = sink.find("sibling");
    ASSERT_TRUE(outer && inner && innermost && sibling);
    EXPECT_EQ(outer->parent, obs::Span::kNoParent);
    EXPECT_EQ(inner->parent, outer->id);
    EXPECT_EQ(innermost->parent, inner->id);
    EXPECT_EQ(sibling->parent, outer->id); // inner already closed
    EXPECT_GE(outer->durationSeconds, inner->durationSeconds);
}

TEST(Span, ExplicitParentCrossesThreads)
{
    CollectSink sink;
    obs::Tracer tracer(&sink);
    std::uint64_t rootId = 0;
    {
        obs::Span root(&tracer, "root", "test");
        rootId = root.id();
        runtime::Executor executor(4);
        executor.parallelFor(8, [&](std::size_t i) {
            std::string name = "task";
            name += std::to_string(i);
            obs::Span task(&tracer, name, "test", rootId);
            task.note("index", static_cast<std::uint64_t>(i));
        });
    }
    const auto spans = sink.spans();
    ASSERT_EQ(spans.size(), 9u);
    int tasks = 0;
    for (const auto &s : spans) {
        if (s.name == "root")
            continue;
        EXPECT_EQ(s.parent, rootId) << s.name;
        ++tasks;
    }
    EXPECT_EQ(tasks, 8);
}

TEST(Span, FinishIsIdempotentAndEager)
{
    CollectSink sink;
    obs::Tracer tracer(&sink);
    obs::Span span(&tracer, "once", "test");
    span.finish();
    span.finish(); // second finish must not double-record
    EXPECT_EQ(sink.spans().size(), 1u);
    span.note("late", std::uint64_t{1}); // ignored after finish
    EXPECT_TRUE(sink.spans().front().attrs.empty());
}

// --- JSON-lines well-formedness ------------------------------------
//
// A deliberately tiny recursive-descent JSON parser: enough to verify
// every trace line is a standalone, syntactically valid JSON object.

class MiniJson
{
  public:
    explicit MiniJson(const std::string &text) : text_(text) {}

    bool
    parseObject()
    {
        skipWs();
        if (peek() != '{' || !object())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

    /** Top-level keys seen while parsing. */
    const std::vector<std::string> &
    keys() const
    {
        return keys_;
    }

  private:
    bool
    value()
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string(nullptr);
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        ++depth_;
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!string(&key))
                return false;
            if (depth_ == 1)
                keys_.push_back(key);
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                --depth_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string(std::string *out)
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
                const char esc = text_[pos_];
                if (esc == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_])))
                            return false;
                    }
                } else if (std::string("\"\\/bfnrt").find(esc) ==
                           std::string::npos) {
                    return false;
                }
                ++pos_;
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // control chars must be escaped
            if (out)
                out->push_back(c);
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                return false;
            ++pos_;
        }
        return true;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t'))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::vector<std::string> keys_;
};

TEST(JsonLinesSink, EveryLineIsAWellFormedObject)
{
    std::ostringstream out;
    obs::JsonLinesSink sink(out);
    obs::Tracer tracer(&sink);
    {
        obs::Span root(&tracer, "root \"quoted\\name\"", "test");
        root.note("text", std::string_view("value with \"quotes\""));
        root.note("count", std::uint64_t{42});
        root.note("ratio", 0.25);
        obs::Span child(&tracer, "child\nwith newline", "test");
        (void)child;
    }
    sink.flush();
    EXPECT_EQ(sink.spansWritten(), 2u);

    std::istringstream lines(out.str());
    std::string line;
    int parsed = 0;
    while (std::getline(lines, line)) {
        MiniJson json(line);
        ASSERT_TRUE(json.parseObject()) << "bad JSON line: " << line;
        const auto &keys = json.keys();
        for (const char *required :
             {"id", "parent", "name", "cat", "start_s", "dur_s"}) {
            EXPECT_NE(std::find(keys.begin(), keys.end(), required),
                      keys.end())
                << "line missing key '" << required << "': " << line;
        }
        ++parsed;
    }
    EXPECT_EQ(parsed, 2);
}

TEST(JsonLinesSink, ConcurrentSpansProduceUnbrokenLines)
{
    std::ostringstream out;
    obs::JsonLinesSink sink(out);
    obs::Tracer tracer(&sink);
    runtime::Executor executor(8);
    executor.parallelFor(200, [&](std::size_t i) {
        std::string name = "w";
        name += std::to_string(i);
        obs::Span span(&tracer, name, "test", obs::Span::kNoParent);
        span.note("i", static_cast<std::uint64_t>(i));
    });
    sink.flush();
    EXPECT_EQ(sink.spansWritten(), 200u);

    std::istringstream lines(out.str());
    std::string line;
    int parsed = 0;
    while (std::getline(lines, line)) {
        MiniJson json(line);
        ASSERT_TRUE(json.parseObject()) << "bad JSON line: " << line;
        ++parsed;
    }
    EXPECT_EQ(parsed, 200);
}

} // namespace
