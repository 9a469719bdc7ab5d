#include "serve/server.h"

#include <cerrno>
#include <cstring>
#include <iostream>
#include <mutex>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/report.h"
#include "serve/protocol.h"
#include "support/check.h"

namespace alberta::serve {

namespace {

runtime::Engine
makeEngine(const ServerOptions &options)
{
    return runtime::Engine::Builder()
        .jobs(options.jobs)
        .traceFile(options.traceFile)
        .cacheDirOption(options.cacheDir, options.cacheDirGiven)
        .build();
}

sockaddr_un
socketAddress(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    support::fatalIf(path.size() >= sizeof(addr.sun_path),
                     "serve: socket path too long: ", path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

/** A request line larger than this is answered with a structured
 * `line_too_long` error and discarded without being parsed, so a
 * runaway (or adversarial) client cannot balloon the reader's line
 * buffer. Generous: the largest legitimate request is a full
 * RunRequest, a few hundred bytes. */
constexpr std::size_t kMaxLineBytes = 1 << 20; // 1 MiB

/** --dispatchers 0 = auto: hardware concurrency clamped to [1, 8] —
 * past eight dispatchers the shared engine's own worker pool is the
 * bottleneck, not queue drain. */
int
resolveDispatchers(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        return 1;
    return static_cast<int>(hw < 8 ? hw : 8);
}

/** True when a live daemon answers on @p path (used to distinguish a
 * stale socket file from an active one before stealing the path). */
bool
socketIsLive(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const sockaddr_un addr = socketAddress(path);
    const bool live =
        ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) == 0;
    ::close(fd);
    return live;
}

} // namespace

/** One accepted client: the fd, a write lock (the reader thread's
 * inline control-plane answers interleave with the dispatcher's run
 * responses), and liveness. Lifetime is shared between the server's
 * connection list and any jobs still queued for it. */
class Connection
{
  public:
    Connection(int fd, std::uint64_t id) : fd_(fd), id_(id) {}
    ~Connection() { ::close(fd_); }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return fd_; }
    std::uint64_t id() const { return id_; }

    /** Write one response line; whole-line writes are serialized so
     * concurrent responders never interleave bytes. */
    void
    sendLine(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(writeMu_);
        if (dead_.load(std::memory_order_relaxed))
            return;
        std::string framed = line;
        framed.push_back('\n');
        std::size_t off = 0;
        while (off < framed.size()) {
            const ssize_t n =
                ::send(fd_, framed.data() + off, framed.size() - off,
                       MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                dead_.store(true, std::memory_order_relaxed);
                return; // client went away; drop the response
            }
            off += static_cast<std::size_t>(n);
        }
    }

    /** Signal EOF both ways; wakes a reader blocked in read(). */
    void
    hangUp()
    {
        dead_.store(true, std::memory_order_relaxed);
        ::shutdown(fd_, SHUT_RDWR);
    }

  private:
    const int fd_;
    const std::uint64_t id_;
    std::mutex writeMu_;
    std::atomic<bool> dead_{false};
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), engine_(makeEngine(options_)),
      queue_(options_.queueCapacity),
      dispatchers_(resolveDispatchers(options_.dispatchers))
{
    support::fatalIf(options_.socketPath.empty(),
                     "serve: --socket requires a path");
}

Server::~Server()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

void
Server::serve()
{
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    support::fatalIf(listenFd_ < 0, "serve: socket(): ",
                     std::strerror(errno));
    const sockaddr_un addr = socketAddress(options_.socketPath);
    if (::bind(listenFd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        support::fatalIf(errno != EADDRINUSE, "serve: bind(",
                         options_.socketPath,
                         "): ", std::strerror(errno));
        // The path exists. A live daemon keeps it; a stale socket
        // file (daemon killed hard) is reclaimed.
        support::fatalIf(socketIsLive(options_.socketPath),
                         "serve: another daemon is listening on ",
                         options_.socketPath);
        ::unlink(options_.socketPath.c_str());
        support::fatalIf(
            ::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0,
            "serve: bind(", options_.socketPath,
            "): ", std::strerror(errno));
    }
    support::fatalIf(::listen(listenFd_, 16) != 0,
                     "serve: listen(): ", std::strerror(errno));
    if (options_.verbose)
        std::cerr << "alberta_serve: listening on "
                  << options_.socketPath << " (jobs="
                  << engine_.jobs() << ", dispatchers="
                  << dispatchers_ << ", queue="
                  << queue_.capacity() << ")\n";

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(dispatchers_));
    for (int i = 0; i < dispatchers_; ++i)
        pool.emplace_back([this] { dispatchLoop(); });

    while (!shuttingDown_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener shut down (or unrecoverable)
        }
        auto connection =
            std::make_shared<Connection>(fd, nextClient_++);
        engine_.metrics().counter("serve.connections").add(1);
        connections_.push_back(connection);
        readers_.emplace_back(
            [this, connection] { readerLoop(connection); });
    }

    // Graceful drain: nothing new is admitted, everything admitted
    // is executed and answered, then clients get EOF.
    queue_.close();
    for (auto &dispatcher : pool)
        dispatcher.join();
    for (const auto &connection : connections_)
        connection->hangUp();
    for (auto &reader : readers_)
        reader.join();
    readers_.clear();
    connections_.clear();
    if (const int fd = listenFd_.exchange(-1); fd >= 0)
        ::close(fd);
    ::unlink(options_.socketPath.c_str());
    engine_.flushTrace();
    if (options_.verbose)
        std::cerr << "alberta_serve: drained, served "
                  << engine_.metrics().counter("serve.responses").value()
                  << " run request(s), exiting\n";
}

void
Server::beginShutdown()
{
    if (shuttingDown_.exchange(true))
        return;
    queue_.close();
    if (const int fd = listenFd_.load(); fd >= 0)
        ::shutdown(fd, SHUT_RDWR); // wakes accept()
}

void
Server::dispatchLoop()
{
    QueueJob job;
    while (queue_.pop(&job)) {
        engine_.metrics()
            .histogram("serve.queue_wait_ms")
            .record(static_cast<double>(job.waitedMs));
        std::string line;
        if (job.expired) {
            // The deadline passed while the job queued: answer in
            // lane order (FIFO preserved) without executing.
            engine_.metrics()
                .counter("serve.deadline_exceeded")
                .add(1);
            line = renderError(
                job.wireId, job.request.kind,
                "deadline exceeded: waited " +
                    std::to_string(job.waitedMs) + " ms of " +
                    std::to_string(job.request.deadlineMs) + " ms allowed",
                "deadline_exceeded");
        } else {
            try {
                const core::RunResult result =
                    core::execute(job.request, engine_);
                line = renderResponse(job.wireId, result);
            } catch (const support::FatalError &e) {
                line = renderError(job.wireId, job.request.kind,
                                   e.what());
            }
        }
        engine_.metrics().counter("serve.responses").add(1);
        if (job.connection)
            job.connection->sendLine(line);
        // Unpin only after the response is on the wire: the next job
        // from this client cannot be popped (let alone answered)
        // before this one's bytes are ordered ahead of it.
        queue_.finish(job.client);
    }
}

void
Server::readerLoop(std::shared_ptr<Connection> connection)
{
    std::string buffer;
    char chunk[4096];
    // Oversized-line guard: once a line exceeds kMaxLineBytes the
    // client gets one structured `line_too_long` error and the rest
    // of that line is discarded up to its newline — the connection
    // (and every later well-formed line) survives.
    bool discarding = false;
    const auto rejectOversized = [&] {
        engine_.metrics().counter("serve.oversized_lines").add(1);
        connection->sendLine(renderError(
            0, "request",
            "request line exceeds " +
                std::to_string(kMaxLineBytes) + " bytes",
            "line_too_long"));
    };
    for (;;) {
        const ssize_t n =
            ::read(connection->fd(), chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl = buffer.find('\n', start);
             nl != std::string::npos;
             nl = buffer.find('\n', start)) {
            if (discarding) {
                discarding = false; // tail of the oversized line
            } else if (nl - start > kMaxLineBytes) {
                rejectOversized();
            } else {
                std::string line = buffer.substr(start, nl - start);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                if (!line.empty())
                    handleLine(connection, line);
            }
            start = nl + 1;
        }
        buffer.erase(0, start);
        if (!discarding && buffer.size() > kMaxLineBytes) {
            rejectOversized();
            discarding = true;
        }
        if (discarding)
            buffer.clear();
    }
}

void
Server::handleLine(const std::shared_ptr<Connection> &connection,
                   const std::string &line)
{
    WireRequest request;
    try {
        request = parseRequestLine(line);
    } catch (const support::FatalError &e) {
        connection->sendLine(renderError(0, "request", e.what()));
        return;
    }
    engine_.metrics().counter("serve.requests").add(1);

    if (request.op == "ping") {
        core::RunResult result;
        result.kind = "ping";
        result.payload = "{}";
        connection->sendLine(renderResponse(request.id, result));
        return;
    }
    if (request.op == "metrics") {
        // Control plane: answered by the reader thread, out of band,
        // so a probe is never queued behind a suite run.
        core::RunResult result;
        result.kind = "metrics";
        result.payload =
            core::ReportWriter(core::ReportFormat::Json, &engine_)
                .metrics(engine_.metricsSnapshot());
        result.payload.pop_back(); // the rendered table's newline
        connection->sendLine(renderResponse(request.id, result));
        return;
    }
    if (request.op == "shutdown") {
        core::RunResult result;
        result.kind = "shutdown";
        result.payload = "{}";
        connection->sendLine(renderResponse(request.id, result));
        beginShutdown();
        return;
    }

    // op == "run": admission-controlled, dispatcher-executed.
    QueueJob job;
    job.client = connection->id();
    job.wireId = request.id;
    job.request = request.run;
    job.connection = connection;
    if (!queue_.push(std::move(job))) {
        const bool draining =
            shuttingDown_.load() || queue_.closed();
        const std::string reason =
            draining ? "draining: server is shutting down"
                     : "queue full (capacity " +
                           std::to_string(queue_.capacity()) + ")";
        engine_.metrics().counter("serve.rejected").add(1);
        connection->sendLine(
            renderError(request.id, request.run.kind, reason,
                        draining ? "draining" : "queue_full"));
    }
}

} // namespace alberta::serve
