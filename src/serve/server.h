/**
 * @file
 * `alberta_serve` — characterization as a service.
 *
 * One long-running Server owns one runtime::Engine (worker pool,
 * result cache with optional disk backing, metrics registry, tracer)
 * and accepts requests over a local AF_UNIX stream socket using the
 * line-delimited JSON protocol in serve/protocol.h. Clients submit
 * the same serializable core::RunRequest the CLI constructs, and run
 * deliverables come back byte-identical to `alberta_cli --format
 * json` on the same cache.
 *
 * Threading model — chosen so ordering guarantees are structural,
 * not incidental:
 *
 *  - one **reader thread per connection** parses request lines and
 *    answers the control plane (ping, metrics, shutdown) inline;
 *  - run requests are admitted to a bounded RequestQueue (full or
 *    draining queue → immediate rejection response);
 *  - a **dispatcher pool** (--dispatchers N, default sized from
 *    hardware concurrency) executes admitted jobs through the shared
 *    engine. The queue's per-client lane pinning keeps at most one
 *    job per client in flight, so a client's responses come back in
 *    exactly the order it sent its requests — structurally, no
 *    matter how many dispatchers run — while *distinct* clients
 *    execute concurrently through the warm shared cache, served
 *    round-robin across clients. Requests carry an optional queue
 *    deadline — a job whose wait exceeds it is answered with a
 *    structured `deadline_exceeded` error instead of occupying a
 *    dispatcher;
 *  - metrics responses are answered from obs::Registry out of band —
 *    a monitoring probe is never stuck behind a queued suite run.
 *
 * Shutdown (SIGTERM via the binary's self-pipe, a client's
 * "shutdown" op, or beginShutdown()) is graceful: the listener
 * closes, the queue stops admitting, everything already admitted
 * runs to completion and is answered, then connections are drained
 * and the socket file removed.
 *
 * Several daemons may share one --cache-dir: the persistent cache's
 * atomic-rename writes and content-keyed entries make concurrent
 * writers safe (results are deterministic, so a race writes the same
 * bytes), and each daemon warms from the others' results.
 */
#ifndef ALBERTA_SERVE_SERVER_H
#define ALBERTA_SERVE_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/engine.h"
#include "serve/queue.h"

namespace alberta::serve {

/** Configuration for one Server (see file comment). */
struct ServerOptions
{
    /** Filesystem path of the AF_UNIX listening socket (required). */
    std::string socketPath;
    /** Engine worker threads (0 = hardware concurrency). */
    int jobs = 0;
    /** --cache-dir value and whether it was explicitly given; fed to
     * Engine::Builder::cacheDirOption (explicit flag wins, else
     * ALBERTA_CACHE_DIR, else no persistence). */
    std::string cacheDir;
    bool cacheDirGiven = false;
    /** JSON-lines span trace of the serving session ("" = off). */
    std::string traceFile;
    /** Admission bound on queued (not yet executing) run requests. */
    std::size_t queueCapacity = 64;
    /** Dispatcher threads draining the queue (0 = auto: hardware
     * concurrency clamped to [1, 8]). */
    int dispatchers = 0;
    /** Log lifecycle lines (listening / drained) to stderr. */
    bool verbose = false;
};

/** The daemon: one engine, one socket, one dispatcher pool. */
class Server
{
  public:
    /** Builds the shared engine; raises support::FatalError for an
     * unusable cache directory (same diagnostic as the CLI). */
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and serve until shutdown; returns after the
     * graceful drain completes and the socket file is removed.
     * Raises support::FatalError when the socket cannot be bound or
     * another live daemon already owns the path.
     */
    void serve();

    /** Start the graceful drain (thread-safe, idempotent): stop
     * accepting, reject new admissions, finish and answer everything
     * already admitted, then return from serve(). */
    void beginShutdown();

    /** The shared engine (valid for the Server's lifetime). */
    runtime::Engine &engine() { return engine_; }

    /** The admission queue (exposed for the bench harness's
     * queue-wait samples). */
    RequestQueue &requestQueue() { return queue_; }

    /** Resolved dispatcher-pool size. */
    int dispatchers() const { return dispatchers_; }

    const std::string &socketPath() const
    {
        return options_.socketPath;
    }

    /** Run requests refused by admission control. */
    std::uint64_t requestsRejected() const
    {
        return queue_.rejected();
    }

  private:
    void dispatchLoop();
    void readerLoop(std::shared_ptr<Connection> connection);
    void handleLine(const std::shared_ptr<Connection> &connection,
                    const std::string &line);

    ServerOptions options_;
    runtime::Engine engine_;
    RequestQueue queue_;
    int dispatchers_ = 1; //!< resolved pool size
    /** Listener socket; atomic because beginShutdown() (signal
     * watcher / another thread) reads it to wake accept() while
     * serve() owns its lifecycle. */
    std::atomic<int> listenFd_{-1};
    std::atomic<bool> shuttingDown_{false};
    std::uint64_t nextClient_ = 1;
    std::vector<std::shared_ptr<Connection>> connections_;
    std::vector<std::thread> readers_;
};

} // namespace alberta::serve

#endif // ALBERTA_SERVE_SERVER_H
