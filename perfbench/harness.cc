/**
 * @file
 * perfbench_harness — the measuring half of the repository benchmark
 * (see README.md in this directory). `run.py` builds it, prepares the
 * served runs' reference cache with `prepare`, runs one workload, and turns
 * the raw record this program writes into the reported metrics and
 * the correctness verdict. This program only measures: it checks
 * nothing and summarizes nothing.
 *
 *   perfbench_harness prepare --cache DIR
 *   perfbench_harness reference --out FILE
 *   perfbench_harness table2 --work DIR --seconds S --seed N
 *       --trace 0|1 --out FILE
 *   perfbench_harness serve --work DIR --ref-cache DIR --pairs FILE
 *       --seconds S --seed N --trace 0|1 --out FILE
 *
 * Only the public request API is driven: core::RunRequest with kind,
 * benchmark and workload set (library defaults for everything else),
 * core::execute, runtime::Engine::Builder, serve::Server and its wire
 * protocol. The traced mode additionally times the public entry
 * points of single layers (Benchmark::workloads,
 * ResultCache::fingerprint, ReportWriter::table2, parseRequestLine,
 * renderResponse) and collects the program's own spans through an
 * in-memory obs::TraceSink.
 */
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "core/request.h"
#include "core/suite.h"
#include "obs/obs.h"
#include "runtime/engine.h"
#include "runtime/result_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace alberta;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Let the host go idle before a set-up-only cycle. A program builds
 * its Engine or starts its Server once, from an idle machine; timed
 * back to back, the same Engine build read 61 to 115 us in processes
 * started after load, and 229 to 253 us after this pause. */
void
idleBeforeSetup()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
}

[[noreturn]] void
die(const std::string &message)
{
    throw std::runtime_error(message);
}

// ---------------------------------------------------------------- JSON out

std::string
quote(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

/** Minimal streaming JSON object writer: fields are appended in call
 * order; values are pre-encoded JSON. */
class Obj
{
  public:
    Obj &
    raw(std::string_view key, std::string_view json)
    {
        text_ += text_.empty() ? "{" : ",";
        text_ += quote(key);
        text_ += ':';
        text_ += json;
        return *this;
    }
    Obj &str(std::string_view key, std::string_view v)
    {
        return raw(key, quote(v));
    }
    Obj &num(std::string_view key, double v)
    {
        return raw(key, ::num(v));
    }
    Obj &
    integer(std::string_view key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Obj &
    boolean(std::string_view key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    std::string done() const { return text_.empty() ? "{}" : text_ + "}"; }

  private:
    std::string text_;
};

std::string
numArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + num(values[i]);
    return out + "]";
}

std::string
joinArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + items[i];
    return out + "]";
}

std::string
metricsJson(const std::vector<obs::MetricSample> &samples)
{
    Obj o;
    for (const obs::MetricSample &s : samples)
        o.num(s.name, s.kind == "histogram" ? s.sum : s.value);
    return o.done();
}

// ------------------------------------------------------ process counters

double
processCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

/** Reset the kernel's RSS high-water mark to the current RSS, so the
 * next peakRssMb() covers only what runs in between. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int
nproc()
{
    return static_cast<int>(
        std::max(1U, std::thread::hardware_concurrency()));
}

// ----------------------------------------------------------- tracing

/** Keeps every finished span in memory, tagged with the phase it
 * belongs to; written out once the run ends. */
class MemorySink : public obs::TraceSink
{
  public:
    void
    record(const obs::SpanRecord &span) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.emplace_back(phase_, span);
    }

    void
    setPhase(int phase)
    {
        std::lock_guard<std::mutex> lock(mu_);
        phase_ = phase;
    }

    /** Write all spans as JSON lines to @p path. */
    void
    write(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::ofstream out(path);
        for (const auto &[phase, s] : spans_) {
            Obj attrs;
            for (const auto &[k, v] : s.attrs)
                attrs.raw(k, v);
            out << Obj()
                       .integer("phase", static_cast<std::uint64_t>(phase))
                       .integer("id", s.id)
                       .integer("parent", s.parent)
                       .str("name", s.name)
                       .str("category", s.category)
                       .num("start", s.startSeconds)
                       .num("dur", s.durationSeconds)
                       .raw("attrs", attrs.done())
                       .done()
                << '\n';
        }
        if (!out)
            die("cannot write " + path);
    }

  private:
    mutable std::mutex mu_;
    int phase_ = 0;
    std::vector<std::pair<int, obs::SpanRecord>> spans_;
};

/** Engine-owned adapter onto a harness-owned MemorySink (the Engine
 * takes ownership of its sink; the spans must outlive the Engine). */
class ForwardSink : public obs::TraceSink
{
  public:
    explicit ForwardSink(MemorySink *target) : target_(target) {}
    void record(const obs::SpanRecord &span) override
    {
        target_->record(span);
    }

  private:
    MemorySink *target_;
};

// ------------------------------------------------------------ options

struct Options
{
    std::string command;
    std::string work;
    std::string refCache;
    std::string cache;
    std::string pairs;
    std::string out;
    double seconds = 10.0;
    std::uint64_t seed = 1;
    bool trace = false;
};

Options
parseOptions(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench_harness "
            "prepare|reference|table2|serve [options]");
    Options o;
    o.command = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + key);
        const std::string value = argv[i + 1];
        if (key == "--work")
            o.work = value;
        else if (key == "--ref-cache")
            o.refCache = value;
        else if (key == "--cache")
            o.cache = value;
        else if (key == "--pairs")
            o.pairs = value;
        else if (key == "--out")
            o.out = value;
        else if (key == "--seconds")
            o.seconds = std::stod(value);
        else if (key == "--seed")
            o.seed = std::stoull(value);
        else if (key == "--trace")
            o.trace = value == "1";
        else
            die("unknown option " + key);
    }
    return o;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text << '\n';
    if (!out)
        die("cannot write " + path);
}

using Pair = std::pair<std::string, std::string>;

/** (benchmark, workload) pairs, one tab-separated pair per line. */
std::vector<Pair>
readPairs(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read " + path);
    std::vector<Pair> pairs;
    std::string line;
    while (std::getline(in, line)) {
        const auto tab = line.find('\t');
        if (tab == std::string::npos)
            die("malformed pair line: " + line);
        pairs.emplace_back(line.substr(0, tab), line.substr(tab + 1));
    }
    if (pairs.empty())
        die("no pairs in " + path);
    return pairs;
}

core::RunRequest
suiteRequest()
{
    core::RunRequest request;
    request.kind = "suite";
    return request;
}

core::RunRequest
runRequest(const Pair &pair)
{
    core::RunRequest request;
    request.kind = "run";
    request.benchmark = pair.first;
    request.workload = pair.second;
    return request;
}

std::string
runLine(std::uint64_t id, const Pair &pair)
{
    return "{\"op\":\"run\",\"id\":" + std::to_string(id) +
           ",\"run\":" + runRequest(pair).toJson() + "}";
}

/** Fresh cache directory: empty (@p from == "") or a copy of @p from. */
void
freshCacheDir(const std::string &dir, const std::string &from)
{
    if (from.empty())
        fs::create_directories(dir);
    else
        fs::copy(from, dir, fs::copy_options::recursive);
}

std::string
envJson(const Options &o, int jobs, int dispatchers, int clients)
{
    return Obj()
        .integer("nproc", static_cast<std::uint64_t>(nproc()))
        .integer("engine_jobs", static_cast<std::uint64_t>(jobs))
        .integer("dispatchers", static_cast<std::uint64_t>(dispatchers))
        .integer("clients", static_cast<std::uint64_t>(clients))
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .integer("seed", o.seed)
        .boolean("trace", o.trace)
        .num("seconds", o.seconds)
        .done();
}

// ------------------------------------------------------------ prepare

/** Fill @p o.cache with a complete cold Table II (run in its own
 * process by run.py, so the served runs inherit no state). */
int
cmdPrepare(const Options &o)
{
    if (o.cache.empty())
        die("prepare needs --cache");
    fs::create_directories(o.cache);
    runtime::Engine engine =
        runtime::Engine::Builder().jobs(nproc()).cacheDir(o.cache).build();
    const core::RunResult result = core::execute(suiteRequest(), engine);
    if (!result.ok)
        die("prepare: suite failed: " + result.error);
    return 0;
}

/** The outputs the references are pinned from: one cold suite and a
 * run request for every Table II (benchmark, workload) pair, on one
 * fresh engine without a disk cache. */
int
cmdReference(const Options &o)
{
    runtime::Engine engine = runtime::Engine::Builder().jobs(nproc()).build();
    const core::RunResult suite = core::execute(suiteRequest(), engine);
    std::vector<std::string> runs;
    for (const std::string &name : core::table2Names()) {
        for (const runtime::Workload &w :
             core::makeBenchmark(name)->workloads()) {
            const core::RunResult r =
                core::execute(runRequest({name, w.name}), engine);
            runs.push_back(Obj()
                               .str("benchmark", name)
                               .str("workload", w.name)
                               .boolean("ok", r.ok)
                               .str("payload", r.payload)
                               .done());
        }
    }
    writeFile(o.out, Obj()
                         .boolean("suite_ok", suite.ok)
                         .str("suite_payload", suite.payload)
                         .raw("runs", joinArray(runs))
                         .done());
    return 0;
}

// ------------------------------------------------------------- table2

/** Per-benchmark workload generation and fingerprinting, timed with
 * the calls one suite request implies (one workloads() call per
 * Table II benchmark, one fingerprint per workload). */
std::string
timeGenerationAndFingerprint()
{
    std::vector<std::string> gens;
    double fpSeconds = 0.0;
    std::uint64_t fpBytes = 0;
    std::uint64_t fpCalls = 0;
    std::uint64_t fpXor = 0; // keeps the timed calls observable
    for (const std::string &name : core::table2Names()) {
        const auto bm = core::makeBenchmark(name);
        const auto start = Clock::now();
        const std::vector<runtime::Workload> workloads = bm->workloads();
        const double seconds = secondsSince(start);
        std::uint64_t bytes = 0;
        for (const runtime::Workload &w : workloads) {
            for (const auto &[file, content] : w.files)
                bytes += content.size();
            const auto fpStart = Clock::now();
            fpXor ^= runtime::ResultCache::fingerprint(*bm, w);
            fpSeconds += secondsSince(fpStart);
            ++fpCalls;
        }
        fpBytes += bytes;
        gens.push_back(Obj()
                           .str("benchmark", name)
                           .num("seconds", seconds)
                           .integer("workloads", workloads.size())
                           .integer("bytes", bytes)
                           .done());
    }
    return Obj()
        .raw("generate", joinArray(gens))
        .raw("fingerprint", Obj()
                                .integer("calls", fpCalls)
                                .num("seconds", fpSeconds)
                                .integer("bytes", fpBytes)
                                .integer("xor", fpXor)
                                .done())
        .done();
}

int
cmdTable2(const Options &o)
{
    const int jobs = nproc();
    const std::string dir = o.work + "/cache";
    constexpr int kMinReps = 3;
    constexpr int kMinSetups = 41;

    MemorySink sink;
    std::vector<double> setups;
    std::vector<std::string> reps;
    std::string layers = "{}";

    // One repetition: a fresh empty cache dir (harness work, untimed),
    // a fresh Engine (the timed set-up), then one suite call (the timed
    // operation).
    const auto runRep = [&](bool traced, int phase) {
        fs::remove_all(dir);
        freshCacheDir(dir, "");
        const auto setupStart = Clock::now();
        runtime::Engine engine =
            runtime::Engine::Builder()
                .jobs(jobs)
                .cacheDir(dir)
                .traceSink(traced ? std::make_unique<ForwardSink>(&sink)
                                  : nullptr)
                .build();
        setups.push_back(secondsSince(setupStart));
        sink.setPhase(phase);

        std::vector<core::Characterization> rows;
        resetPeakRss();
        const double cpu0 = processCpuSeconds();
        const double traceStart = engine.tracer().sinceEpoch();
        const auto start = Clock::now();
        const core::RunResult result =
            core::execute(suiteRequest(), engine, &rows);
        const double wall = secondsSince(start);
        const double traceEnd = engine.tracer().sinceEpoch();
        const double cpu = processCpuSeconds() - cpu0;
        const double rss = peakRssMb();

        Obj rep;
        rep.integer("phase", static_cast<std::uint64_t>(phase))
            .boolean("traced", traced)
            .num("setup_s", setups.back())
            .num("wall_s", wall)
            .num("cpu_s", cpu)
            .num("peak_rss_mb", rss)
            .boolean("ok", result.ok)
            .str("error", result.error)
            .str("payload", result.payload)
            .raw("metrics", metricsJson(engine.metricsSnapshot()));
        if (traced) {
            // ReportWriter::table2 on the returned rows, median of 5.
            std::vector<double> renders;
            const core::ReportWriter writer(core::ReportFormat::Json);
            for (int i = 0; i < 5; ++i) {
                const auto rs = Clock::now();
                const std::string text = writer.table2(rows);
                renders.push_back(secondsSince(rs));
                if (text.empty())
                    die("empty Table II render");
            }
            rep.num("trace_start", traceStart)
                .num("trace_end", traceEnd)
                .raw("render_s", numArray(renders));
        }
        reps.push_back(rep.done());
    };

    // Set-up-only cycles first, while the process is fresh.
    while (static_cast<int>(setups.size()) < kMinSetups) {
        idleBeforeSetup();
        fs::remove_all(dir);
        freshCacheDir(dir, "");
        const auto setupStart = Clock::now();
        runtime::Engine engine =
            runtime::Engine::Builder().jobs(jobs).cacheDir(dir).build();
        setups.push_back(secondsSince(setupStart));
    }

    const auto start = Clock::now();
    int phase = 0;
    if (!o.trace) {
        while (phase < kMinReps || secondsSince(start) < o.seconds)
            runRep(false, phase++);
    } else {
        // Alternate untraced and traced repetitions so the tracing
        // overhead compares like with like.
        layers = timeGenerationAndFingerprint();
        while (phase < 2 || secondsSince(start) < o.seconds) {
            runRep(phase % 2 == 1, phase);
            ++phase;
        }
    }
    fs::remove_all(dir);

    std::string spansFile;
    if (o.trace) {
        spansFile = o.out + ".spans.jsonl";
        sink.write(spansFile);
    }
    writeFile(o.out, Obj()
                         .str("workload", "table2_cold")
                         .raw("env", envJson(o, jobs, 0, 0))
                         .raw("setup_s", numArray(setups))
                         .raw("reps", joinArray(reps))
                         .raw("layers", layers)
                         .str("spans_file", spansFile)
                         .done());
    return 0;
}

// -------------------------------------------------------------- serve

/** One blocking client connection speaking the line protocol. */
class LineClient
{
  public:
    explicit LineClient(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            die("socket() failed");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            die("socket path too long: " + path);
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        // The server binds on its own thread; retry until it listens.
        const auto start = Clock::now();
        while (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)) != 0) {
            if (secondsSince(start) > 30.0)
                die("cannot connect to " + path);
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
    }
    ~LineClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    LineClient(const LineClient &) = delete;
    LineClient &operator=(const LineClient &) = delete;

    void
    send(const std::string &line)
    {
        const std::string data = line + '\n';
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + off,
                                     data.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                die("send failed");
            off += static_cast<std::size_t>(n);
        }
    }

    std::string
    receive()
    {
        for (;;) {
            const auto nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return line;
            }
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0)
                die("connection closed by server");
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** A Server running serve() on its own thread; the destructor drains
 * it and joins the thread. */
class RunningServer
{
  public:
    RunningServer(const std::string &socketPath, const std::string &cacheDir,
                  MemorySink *sink)
        : server_(makeOptions(socketPath, cacheDir))
    {
        if (sink)
            server_.engine().tracer().setSink(sink);
        thread_ = std::thread([this] {
            try {
                server_.serve();
            } catch (const std::exception &e) {
                std::cerr << "perfbench_harness: server: " << e.what()
                          << '\n';
            }
        });
    }
    ~RunningServer()
    {
        server_.beginShutdown();
        thread_.join();
    }
    RunningServer(const RunningServer &) = delete;
    RunningServer &operator=(const RunningServer &) = delete;

    serve::Server &server() { return server_; }

  private:
    static serve::ServerOptions
    makeOptions(const std::string &socketPath, const std::string &cacheDir)
    {
        serve::ServerOptions options;
        options.socketPath = socketPath;
        options.cacheDir = cacheDir;
        options.cacheDirGiven = true;
        return options;
    }

    serve::Server server_;
    std::thread thread_; //!< declared last: uses the members above
};

/** Seeded request order: pass @p pass is a permutation of the pair
 * indices. The seed changes the order only, never the set. */
std::vector<std::size_t>
passOrder(std::uint64_t seed, std::size_t pass, std::size_t count)
{
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i)
        order[i] = i;
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + pass + 1);
    for (std::size_t i = count; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

/** The shared request cursor of the closed-loop clients: hands out
 * the next (pass, pair) until the run has covered at least
 * @p minPasses whole passes and @p seconds have elapsed. */
class RequestCursor
{
  public:
    RequestCursor(std::uint64_t seed, std::size_t pairs,
                  std::size_t minPasses, double seconds)
        : seed_(seed), pairs_(pairs), minPasses_(minPasses),
          seconds_(seconds), start_(Clock::now())
    {
    }

    struct Item
    {
        std::uint64_t id = 0;
        std::size_t pass = 0;
        std::size_t pair = 0;
    };

    std::optional<Item>
    next()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (pos_ == order_.size()) {
            if (passes_ >= minPasses_ && secondsSince(start_) >= seconds_)
                return std::nullopt;
            order_ = passOrder(seed_, passes_++, pairs_);
            pos_ = 0;
        }
        Item item;
        item.id = ++issued_;
        item.pass = passes_ - 1;
        item.pair = order_[pos_++];
        return item;
    }

    std::size_t
    passes() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return passes_;
    }

  private:
    const std::uint64_t seed_;
    const std::size_t pairs_;
    const std::size_t minPasses_;
    const double seconds_;
    const Clock::time_point start_;
    mutable std::mutex mu_;
    std::vector<std::size_t> order_;
    std::size_t pos_ = 0;
    std::size_t passes_ = 0;
    std::uint64_t issued_ = 0;
};

struct Served
{
    std::uint64_t id = 0;
    std::size_t pass = 0;
    std::size_t pair = 0;
    int client = 0;
    double latencyMs = 0.0;
    bool ok = false;
    std::string code;
    std::string error;
    std::string payload;
};

/** Start a server on a fresh copy of the reference cache and time it
 * up to its first /ping answer. */
std::unique_ptr<RunningServer>
startServer(const std::string &work, const std::string &refCache,
            MemorySink *sink, std::vector<double> *setups)
{
    const std::string dir = work + "/cache";
    const std::string socketPath = work + "/serve.sock";
    fs::remove_all(dir);
    fs::remove(socketPath);
    freshCacheDir(dir, refCache);
    const auto start = Clock::now();
    auto running = std::make_unique<RunningServer>(socketPath, dir, sink);
    {
        LineClient ping(socketPath);
        ping.send("/ping");
        const std::string answer = ping.receive();
        if (answer.find("\"ok\":true") == std::string::npos)
            die("ping failed: " + answer);
    }
    setups->push_back(secondsSince(start));
    return running;
}

/** One measured phase: @p clients closed-loop connections drive at
 * least @p minPasses seeded passes, and whole passes for at least
 * @p seconds, through a fresh server. */
std::string
servePhase(const Options &o, const std::vector<Pair> &pairs, int clients,
           std::size_t minPasses, double seconds, MemorySink *sink,
           int phase, std::vector<double> *setups,
           std::vector<std::string> *servedJson,
           int *dispatchersOut)
{
    auto running = startServer(o.work, o.refCache, sink, setups);
    serve::Server &server = running->server();
    obs::Tracer *tracer = sink ? &server.engine().tracer() : nullptr;
    if (sink)
        sink->setPhase(phase);

    std::vector<std::unique_ptr<LineClient>> conns;
    for (int c = 0; c < clients; ++c)
        conns.push_back(std::make_unique<LineClient>(server.socketPath()));

    std::vector<std::vector<Served>> perClient(clients);
    std::vector<std::string> errors(clients);
    resetPeakRss();
    const double cpu0 = processCpuSeconds();
    const auto start = Clock::now();
    RequestCursor cursor(o.seed, pairs.size(), minPasses, seconds);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            try {
                while (const auto item = cursor.next()) {
                    obs::Span span(tracer, "request", "client",
                                   obs::Span::kNoParent);
                    span.note("request_id", item->id);
                    span.note("benchmark", pairs[item->pair].first);
                    span.note("workload", pairs[item->pair].second);
                    const std::string line =
                        runLine(item->id, pairs[item->pair]);
                    const auto sent = Clock::now();
                    conns[c]->send(line);
                    const std::string answer = conns[c]->receive();
                    Served s;
                    s.latencyMs = secondsSince(sent) * 1e3;
                    s.id = item->id;
                    s.pass = item->pass;
                    s.pair = item->pair;
                    s.client = c;
                    const serve::WireResponse response =
                        serve::parseResponseLine(answer);
                    s.ok = response.result.ok && response.id == item->id;
                    s.code = response.result.code;
                    s.error = response.id == item->id
                                  ? response.result.error
                                  : "response id mismatch";
                    s.payload = response.result.payload;
                    perClient[c].push_back(std::move(s));
                }
            } catch (const std::exception &e) {
                errors[c] = e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double wall = secondsSince(start);
    const double cpu = processCpuSeconds() - cpu0;
    const double rss = peakRssMb();
    for (const std::string &e : errors) {
        if (!e.empty())
            die("client failed: " + e);
    }

    const std::vector<double> waits =
        server.requestQueue().takeWaitSamplesMs();
    const std::uint64_t rejected = server.requestsRejected();
    const std::string metrics = metricsJson(server.engine().metricsSnapshot());
    const int dispatchers = server.dispatchers();
    *dispatchersOut = dispatchers;
    const int engineJobs = server.engine().jobs();
    conns.clear();
    running.reset();

    std::vector<std::string> requests;
    for (const auto &list : perClient) {
        for (const Served &s : list) {
            servedJson->push_back(Obj()
                                      .integer("phase", phase)
                                      .integer("id", s.id)
                                      .integer("pair", s.pair)
                                      .boolean("ok", s.ok)
                                      .str("code", s.code)
                                      .str("error", s.error)
                                      .str("payload", s.payload)
                                      .done());
            requests.push_back(Obj()
                                   .integer("id", s.id)
                                   .integer("pass", s.pass)
                                   .integer("pair", s.pair)
                                   .integer("client", s.client)
                                   .num("latency_ms", s.latencyMs)
                                   .boolean("ok", s.ok)
                                   .done());
        }
    }
    return Obj()
        .integer("phase", phase)
        .boolean("traced", sink != nullptr)
        .integer("passes", cursor.passes())
        .integer("dispatchers", dispatchers)
        .integer("engine_jobs", engineJobs)
        .num("wall_s", wall)
        .num("cpu_s", cpu)
        .num("peak_rss_mb", rss)
        .integer("rejected", rejected)
        .raw("queue_wait_ms", numArray(waits))
        .raw("metrics", metrics)
        .raw("requests", joinArray(requests))
        .done();
}

/** Traced-mode stage timing: the first pass's request sequence
 * replayed through the public per-stage entry points on a fresh
 * engine (same cache contents, same lane count as the server). */
std::string
replayStages(const Options &o, const std::vector<Pair> &pairs, int clients,
             MemorySink *sink, int phase, std::vector<std::string> *servedJson)
{
    const std::string dir = o.work + "/cache";
    fs::remove_all(dir);
    freshCacheDir(dir, o.refCache);
    runtime::Engine engine = runtime::Engine::Builder()
                                 .jobs(nproc())
                                 .cacheDir(dir)
                                 .traceSink(std::make_unique<ForwardSink>(sink))
                                 .build();
    sink->setPhase(phase);
    const std::vector<std::size_t> order = passOrder(o.seed, 0, pairs.size());
    std::atomic<std::size_t> cursor{0};
    std::vector<std::string> rows(order.size());
    std::vector<std::string> served(order.size());
    std::vector<std::string> errors(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            try {
                for (std::size_t k; (k = cursor++) < order.size();) {
                    const Pair &pair = pairs[order[k]];
                    const std::uint64_t id = k + 1;
                    obs::Tracer *tracer = &engine.tracer();
                    obs::Span root(tracer, "replay", "client",
                                   obs::Span::kNoParent);
                    root.note("request_id", id);
                    const std::string line = runLine(id, pair);

                    obs::Span parseSpan(tracer, "parse", "serve");
                    parseSpan.note("request_id", id);
                    auto t = Clock::now();
                    const serve::WireRequest wire =
                        serve::parseRequestLine(line);
                    const double parseMs = secondsSince(t) * 1e3;
                    parseSpan.finish();

                    obs::Span genSpan(tracer, "generate", "benchmarks");
                    genSpan.note("request_id", id);
                    const auto bm = core::makeBenchmark(pair.first);
                    t = Clock::now();
                    const std::vector<runtime::Workload> workloads =
                        bm->workloads();
                    const double genS = secondsSince(t);
                    genSpan.finish();
                    std::uint64_t bytes = 0;
                    double fpS = 0.0;
                    std::uint64_t fpBytes = 0;
                    for (const runtime::Workload &w : workloads) {
                        for (const auto &[f, content] : w.files)
                            bytes += content.size();
                        if (w.name != pair.second)
                            continue;
                        obs::Span fpSpan(tracer, "fingerprint", "cache");
                        fpSpan.note("request_id", id);
                        t = Clock::now();
                        const std::uint64_t fp =
                            runtime::ResultCache::fingerprint(*bm, w);
                        fpS = secondsSince(t);
                        fpSpan.note("fingerprint", fp);
                        for (const auto &[f, content] : w.files)
                            fpBytes += content.size();
                    }

                    obs::Span execSpan(tracer, "execute", "core");
                    execSpan.note("request_id", id);
                    t = Clock::now();
                    const core::RunResult result =
                        core::execute(wire.run, engine);
                    const double execMs = secondsSince(t) * 1e3;
                    execSpan.finish();

                    obs::Span renderSpan(tracer, "render", "serve");
                    renderSpan.note("request_id", id);
                    t = Clock::now();
                    const std::string response =
                        serve::renderResponse(wire.id, result);
                    const double renderMs = secondsSince(t) * 1e3;
                    renderSpan.finish();

                    served[k] = Obj()
                                    .integer("phase", phase)
                                    .integer("id", id)
                                    .integer("pair", order[k])
                                    .boolean("ok", result.ok &&
                                                       !response.empty())
                                    .str("code", result.code)
                                    .str("error", result.error)
                                    .str("payload", result.payload)
                                    .done();
                    rows[k] = Obj()
                                  .integer("id", id)
                                  .integer("pair", order[k])
                                  .num("parse_ms", parseMs)
                                  .num("generate_s", genS)
                                  .integer("workloads", workloads.size())
                                  .integer("generated_bytes", bytes)
                                  .num("fingerprint_s", fpS)
                                  .integer("fingerprint_bytes", fpBytes)
                                  .num("execute_ms", execMs)
                                  .num("render_ms", renderMs)
                                  .done();
                }
            } catch (const std::exception &e) {
                errors[c] = e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::string &e : errors) {
        if (!e.empty())
            die("replay failed: " + e);
    }
    servedJson->insert(servedJson->end(), served.begin(), served.end());
    return Obj()
        .integer("phase", phase)
        .raw("metrics", metricsJson(engine.metricsSnapshot()))
        .raw("requests", joinArray(rows))
        .done();
}

int
cmdServe(const Options &o)
{
    if (o.refCache.empty() || o.pairs.empty())
        die("serve needs --ref-cache and --pairs");
    constexpr int kMinSetups = 25;
    const std::vector<Pair> pairs = readPairs(o.pairs);
    const int clients = std::min(4, nproc());
    fs::create_directories(o.work);

    MemorySink sink;
    std::vector<double> setups;
    std::vector<std::string> served;
    std::vector<std::string> phases;
    std::string replay = "null";

    // Set-up-only cycles first, so set-up time is a median of several.
    while (static_cast<int>(setups.size()) < kMinSetups - (o.trace ? 2 : 1)) {
        idleBeforeSetup();
        startServer(o.work, o.refCache, nullptr, &setups);
    }
    // Three passes keep the p50 steady; a traced run makes two phases
    // (untraced, traced) of the two passes that p95 needs and splits
    // --seconds between them.
    const std::size_t minPasses = o.trace ? 2 : 3;
    const double seconds = o.trace ? o.seconds / 2 : o.seconds;
    int dispatchers = 0;
    phases.push_back(servePhase(o, pairs, clients, minPasses, seconds,
                                nullptr, 0, &setups, &served, &dispatchers));
    if (o.trace) {
        phases.push_back(servePhase(o, pairs, clients, minPasses, seconds,
                                    &sink, 1, &setups, &served,
                                    &dispatchers));
        replay = replayStages(o, pairs, clients, &sink, 2, &served);
    }
    fs::remove_all(o.work + "/cache");

    std::string spansFile;
    if (o.trace) {
        spansFile = o.out + ".spans.jsonl";
        sink.write(spansFile);
    }
    const std::string servedFile = o.work + "/served.jsonl";
    {
        std::ofstream out(servedFile);
        for (const std::string &line : served)
            out << line << '\n';
        if (!out)
            die("cannot write " + servedFile);
    }
    writeFile(o.out,
              Obj()
                  .str("workload", "serve_run")
                  .raw("env", envJson(o, nproc(), dispatchers, clients))
                  .raw("setup_s", numArray(setups))
                  .raw("phases", joinArray(phases))
                  .raw("replay", replay)
                  .str("served_file", servedFile)
                  .str("spans_file", spansFile)
                  .done());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parseOptions(argc, argv);
        if (!o.work.empty())
            fs::create_directories(o.work);
        if (o.command == "prepare")
            return cmdPrepare(o);
        if (o.command == "reference")
            return cmdReference(o);
        if (o.command == "table2")
            return cmdTable2(o);
        if (o.command == "serve")
            return cmdServe(o);
        die("unknown command " + o.command);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_harness: " << e.what() << '\n';
        return 1;
    }
}
