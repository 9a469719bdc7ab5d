/** @file
 * Tests for the serving layer: wire protocol round-trips, the
 * admission queue's fairness, and the daemon end to end — payload
 * byte-identity with the in-process request API, concurrent-client
 * FIFO ordering, graceful drain, and two daemons sharing a cache
 * directory.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/request.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "support/check.h"
#include "support/json.h"

namespace {

using namespace alberta;
namespace fs = std::filesystem;

std::string
freshPath(const std::string &tag)
{
    static int counter = 0;
    const fs::path path = fs::path(::testing::TempDir()) /
                          ("alberta-serve-" + tag + "-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(counter++));
    fs::remove_all(path);
    return path.string();
}

/** Line-oriented test client for the daemon's socket. */
class Client
{
  public:
    explicit Client(const std::string &socketPath)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        support::fatalIf(fd_ < 0, "socket(): ",
                         std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        support::fatalIf(socketPath.size() >= sizeof(addr.sun_path),
                         "socket path too long");
        std::memcpy(addr.sun_path, socketPath.c_str(),
                    socketPath.size() + 1);
        // The server thread may still be between bind and listen;
        // retry briefly.
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (::connect(fd_,
                         reinterpret_cast<const sockaddr *>(&addr),
                         sizeof(addr)) != 0) {
            support::fatalIf(
                std::chrono::steady_clock::now() >= deadline,
                "connect(", socketPath,
                "): ", std::strerror(errno));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    sendLine(const std::string &line)
    {
        std::string framed = line;
        framed.push_back('\n');
        std::size_t off = 0;
        while (off < framed.size()) {
            const ssize_t n =
                ::send(fd_, framed.data() + off,
                       framed.size() - off, MSG_NOSIGNAL);
            ASSERT_GT(n, 0) << std::strerror(errno);
            off += static_cast<std::size_t>(n);
        }
    }

    /** Next newline-terminated line; empty string at EOF. */
    std::string
    recvLine()
    {
        for (;;) {
            const std::size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return line;
            }
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return {};
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** A Server running on its own thread, joined on destruction. */
class ServerFixture
{
  public:
    explicit ServerFixture(serve::ServerOptions options)
        : server_(std::move(options)),
          thread_([this] { server_.serve(); })
    {
    }

    ~ServerFixture()
    {
        server_.beginShutdown();
        thread_.join();
    }

    serve::Server &operator*() { return server_; }
    serve::Server *operator->() { return &server_; }

  private:
    serve::Server server_;
    std::thread thread_;
};

serve::ServerOptions
serverOptions(const std::string &socket,
              const std::string &cacheDir = "")
{
    serve::ServerOptions options;
    options.socketPath = socket;
    options.jobs = 2;
    options.cacheDir = cacheDir;
    options.cacheDirGiven = !cacheDir.empty();
    return options;
}

/** Run requests the daemon answered (success or error), from its
 * metrics registry. */
std::uint64_t
responses(serve::Server &server)
{
    return server.engine().metrics().counter("serve.responses").value();
}

std::string
runLine(std::uint64_t id, const std::string &benchmark,
        const std::string &workload)
{
    core::RunRequest request;
    request.kind = "run";
    request.benchmark = benchmark;
    request.workload = workload;
    return "{\"op\":\"run\",\"id\":" + std::to_string(id) +
           ",\"run\":" + request.toJson() + "}";
}

// --- protocol ---------------------------------------------------------

TEST(Protocol, RequestLineRoundTrip)
{
    core::RunRequest request;
    request.kind = "characterize";
    request.benchmark = "505.mcf_r";
    request.refrateRepetitions = 2;
    const std::string line = "{\"op\":\"run\",\"id\":41,\"run\":" +
                             request.toJson() + "}";
    const serve::WireRequest wire = serve::parseRequestLine(line);
    EXPECT_EQ(wire.op, "run");
    EXPECT_EQ(wire.id, 41u);
    EXPECT_EQ(wire.run.kind, "characterize");
    EXPECT_EQ(wire.run.benchmark, "505.mcf_r");
    EXPECT_EQ(wire.run.refrateRepetitions, 2);
    // RunRequest round-trips through its own JSON.
    EXPECT_EQ(core::RunRequest::fromJsonText(request.toJson())
                  .toJson(),
              request.toJson());
}

TEST(Protocol, SlashShorthandAndControlOps)
{
    EXPECT_EQ(serve::parseRequestLine("/metrics").op, "metrics");
    EXPECT_EQ(serve::parseRequestLine("/ping").op, "ping");
    EXPECT_EQ(serve::parseRequestLine("/shutdown").op, "shutdown");
    EXPECT_EQ(
        serve::parseRequestLine("{\"op\":\"ping\",\"id\":3}").id,
        3u);
}

TEST(Protocol, MalformedLinesAreFatal)
{
    EXPECT_THROW(serve::parseRequestLine("not json"),
                 support::FatalError);
    EXPECT_THROW(serve::parseRequestLine("{\"op\":\"nope\"}"),
                 support::FatalError);
    EXPECT_THROW(serve::parseRequestLine("{\"op\":\"run\"}"),
                 support::FatalError);
    EXPECT_THROW(serve::parseRequestLine("/flush"),
                 support::FatalError);
    EXPECT_THROW(
        serve::parseRequestLine(
            "{\"op\":\"run\",\"run\":{\"kind\":\"bogus\"}}"),
        support::FatalError);
}

TEST(Protocol, ResponsePayloadIsRecoveredByteIdentically)
{
    // Unusual-but-valid spacing survives because the payload is
    // sliced out of the envelope, never re-encoded.
    core::RunResult result;
    result.kind = "suite";
    result.payload = "[{\"a\":  [1,\t2], \"b\": \"x}y\"}]";
    const std::string line = serve::renderResponse(9, result);
    const serve::WireResponse wire = serve::parseResponseLine(line);
    EXPECT_EQ(wire.id, 9u);
    EXPECT_TRUE(wire.result.ok);
    EXPECT_EQ(wire.result.kind, "suite");
    EXPECT_EQ(wire.result.payload, result.payload);
}

TEST(Protocol, ErrorResponsesCarryTheDiagnostic)
{
    const std::string line =
        serve::renderError(7, "run", "suite: unknown benchmark");
    const serve::WireResponse wire = serve::parseResponseLine(line);
    EXPECT_EQ(wire.id, 7u);
    EXPECT_FALSE(wire.result.ok);
    EXPECT_EQ(wire.result.error, "suite: unknown benchmark");
    EXPECT_EQ(wire.result.code, ""); // no code unless given
}

TEST(Protocol, ErrorResponsesCarryTheStructuredCode)
{
    const std::string line = serve::renderError(
        8, "suite", "deadline exceeded", "deadline_exceeded");
    const serve::WireResponse wire = serve::parseResponseLine(line);
    EXPECT_FALSE(wire.result.ok);
    EXPECT_EQ(wire.result.code, "deadline_exceeded");
    EXPECT_EQ(wire.result.error, "deadline exceeded");
}

TEST(Protocol, DeadlineRoundTripsByteStably)
{
    core::RunRequest request;
    request.kind = "characterize";
    request.benchmark = "505.mcf_r";
    request.deadlineMs = 1500;
    const std::string json = request.toJson();
    EXPECT_NE(json.find("\"deadline_ms\":1500"), std::string::npos);
    // serialize → parse → serialize is byte-stable.
    const core::RunRequest back = core::RunRequest::fromJsonText(json);
    EXPECT_EQ(back.deadlineMs, 1500);
    EXPECT_EQ(back.toJson(), json);
}

TEST(Protocol, DefaultDeadlineIsOmittedFromTheWireForm)
{
    // The wire form carries exactly the fields a caller sets; the
    // absent deadline is not serialized at all.
    core::RunRequest request;
    request.kind = "suite";
    const std::string json = request.toJson();
    EXPECT_EQ(json,
              "{\"kind\":\"suite\",\"benchmark\":\"\",\"workload\":\"\","
              "\"refrate_repetitions\":3}");
    const core::RunRequest back = core::RunRequest::fromJsonText(json);
    EXPECT_EQ(back.deadlineMs, 0);
    EXPECT_EQ(back.toJson(), json);
}

/** `deadline_ms` is range-checked; `priority` is not a request
 * field, so it is an unknown key at any value. */
TEST(Protocol, OutOfRangePriorityAndDeadlineAreFatal)
{
    core::RunRequest request;
    request.kind = "suite";
    request.deadlineMs = -5;
    EXPECT_THROW(request.validate(), support::FatalError);
    request.deadlineMs = core::RunRequest::kMaxDeadlineMs + 1;
    EXPECT_THROW(request.validate(), support::FatalError);
    // The wire parser enforces the same bounds (and rejects
    // non-integers) before validate() ever runs.
    EXPECT_THROW(core::RunRequest::fromJsonText(
                     "{\"kind\":\"suite\",\"deadline_ms\":1e18}"),
                 support::FatalError);
    EXPECT_THROW(core::RunRequest::fromJsonText(
                     "{\"kind\":\"suite\",\"deadline_ms\":\"soon\"}"),
                 support::FatalError);
    for (const std::string priority : {"0", "7", "101", "\"high\""}) {
        EXPECT_THROW(core::RunRequest::fromJsonText(
                         "{\"kind\":\"suite\",\"priority\":" +
                         priority + "}"),
                     support::FatalError)
            << priority;
    }
}

TEST(Protocol, ZeroRefrateRepetitionsIsFatal)
{
    EXPECT_THROW(core::RunRequest::fromJsonText(
                     "{\"kind\":\"run\",\"benchmark\":\"505.mcf_r\","
                     "\"workload\":\"refrate\","
                     "\"refrate_repetitions\":0}"),
                 support::FatalError);
}

// --- admission queue --------------------------------------------------

serve::QueueJob
job(std::uint64_t client, std::uint64_t wireId,
    std::uint64_t deadlineMs = 0)
{
    serve::QueueJob j;
    j.client = client;
    j.wireId = wireId;
    j.request.deadlineMs = static_cast<std::int64_t>(deadlineMs);
    return j;
}

TEST(RequestQueue, PerClientFifoWithRoundRobinAcrossClients)
{
    serve::RequestQueue queue(16);
    // Client 1 pipelines three requests before client 2's two.
    ASSERT_TRUE(queue.push(job(1, 10)));
    ASSERT_TRUE(queue.push(job(1, 11)));
    ASSERT_TRUE(queue.push(job(1, 12)));
    ASSERT_TRUE(queue.push(job(2, 20)));
    ASSERT_TRUE(queue.push(job(2, 21)));

    // Round-robin interleaves the clients; within a client the order
    // is exactly the order pushed. pop() pins the lane, so a single
    // dispatcher must finish() each job before the next pop.
    std::vector<std::uint64_t> order;
    serve::QueueJob out;
    while (queue.size() > 0 && queue.pop(&out)) {
        order.push_back(out.wireId);
        queue.finish(out.client);
    }
    EXPECT_EQ(order,
              (std::vector<std::uint64_t>{10, 20, 11, 21, 12}));
}

TEST(RequestQueue, LanePinningKeepsOneJobPerClientInFlight)
{
    serve::RequestQueue queue(16);
    ASSERT_TRUE(queue.push(job(1, 10)));
    ASSERT_TRUE(queue.push(job(1, 11)));
    ASSERT_TRUE(queue.push(job(2, 20)));

    serve::QueueJob first, second;
    ASSERT_TRUE(queue.pop(&first));  // client 1, pins its lane
    ASSERT_TRUE(queue.pop(&second)); // client 2: lane 1 is pinned
    EXPECT_EQ(first.wireId, 10u);
    EXPECT_EQ(second.wireId, 20u);

    // Job 11 is queued but its lane is pinned: a third pop must
    // block until finish(1) unpins it.
    queue.finish(2);
    std::atomic<bool> popped{false};
    serve::QueueJob third;
    std::thread blocked([&] {
        EXPECT_TRUE(queue.pop(&third));
        popped.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(popped.load()) << "pop bypassed a pinned lane";
    queue.finish(1);
    blocked.join();
    EXPECT_TRUE(popped.load());
    EXPECT_EQ(third.wireId, 11u);
    queue.finish(1);
}

TEST(RequestQueue, DeadlinesEvaluatedAtPopAgainstInjectedClock)
{
    std::uint64_t now = 1000;
    serve::RequestQueue queue(16, [&now] { return now; });
    ASSERT_TRUE(queue.push(job(1, 10, 5)));  // 5 ms deadline
    ASSERT_TRUE(queue.push(job(2, 20, 50))); // 50 ms deadline
    ASSERT_TRUE(queue.push(job(3, 30, 0)));  // no deadline

    now += 10; // both waited 10 ms
    serve::QueueJob out;
    ASSERT_TRUE(queue.pop(&out));
    EXPECT_EQ(out.wireId, 10u);
    EXPECT_EQ(out.waitedMs, 10u);
    EXPECT_TRUE(out.expired);
    queue.finish(1);
    ASSERT_TRUE(queue.pop(&out));
    EXPECT_EQ(out.wireId, 20u);
    EXPECT_FALSE(out.expired); // within its 50 ms budget
    queue.finish(2);
    now += 100000;
    ASSERT_TRUE(queue.pop(&out));
    EXPECT_EQ(out.wireId, 30u);
    EXPECT_FALSE(out.expired); // deadline 0 = none
    queue.finish(3);
    EXPECT_EQ(queue.expired(), 1u);
    const std::vector<double> waits = queue.takeWaitSamplesMs();
    ASSERT_EQ(waits.size(), 3u);
    EXPECT_EQ(waits[0], 10.0);
    EXPECT_TRUE(queue.takeWaitSamplesMs().empty()); // drained
}

TEST(RequestQueue, WaitSamplesAreCappedBetweenTakes)
{
    serve::RequestQueue queue(4);
    const std::size_t pops = serve::RequestQueue::kMaxWaitSamples + 10;
    serve::QueueJob out;
    for (std::size_t i = 0; i < pops; ++i) {
        ASSERT_TRUE(queue.push(job(1, i)));
        ASSERT_TRUE(queue.pop(&out));
        queue.finish(1);
    }
    EXPECT_EQ(queue.takeWaitSamplesMs().size(),
              serve::RequestQueue::kMaxWaitSamples);
    // A take empties the buffer and re-opens it.
    ASSERT_TRUE(queue.push(job(1, pops)));
    ASSERT_TRUE(queue.pop(&out));
    queue.finish(1);
    EXPECT_EQ(queue.takeWaitSamplesMs().size(), 1u);
}

TEST(RequestQueue, FullQueueRejectsWithoutBlocking)
{
    serve::RequestQueue queue(2);
    EXPECT_TRUE(queue.push(job(1, 1)));
    EXPECT_TRUE(queue.push(job(1, 2)));
    EXPECT_FALSE(queue.push(job(1, 3)));
    EXPECT_EQ(queue.rejected(), 1u);
    EXPECT_EQ(queue.size(), 2u);
}

TEST(RequestQueue, CloseDrainsQueuedJobsThenStops)
{
    serve::RequestQueue queue(8);
    ASSERT_TRUE(queue.push(job(1, 1)));
    ASSERT_TRUE(queue.push(job(2, 2)));
    queue.close();
    EXPECT_FALSE(queue.push(job(1, 3))); // draining: rejected
    serve::QueueJob out;
    EXPECT_TRUE(queue.pop(&out));
    EXPECT_TRUE(queue.pop(&out));
    EXPECT_FALSE(queue.pop(&out)); // closed and drained
}

// --- the daemon end to end --------------------------------------------

TEST(Serve, RunPayloadMatchesInProcessExecution)
{
    const std::string socket = freshPath("run.sock");
    ServerFixture server(serverOptions(socket));

    core::RunRequest request;
    request.kind = "run";
    request.benchmark = "505.mcf_r";
    request.workload = "test";
    runtime::Engine local(1);
    const core::RunResult direct = core::execute(request, local);

    Client client(socket);
    client.sendLine("{\"op\":\"run\",\"id\":1,\"run\":" +
                    request.toJson() + "}");
    const serve::WireResponse served =
        serve::parseResponseLine(client.recvLine());
    ASSERT_TRUE(served.result.ok) << served.result.error;
    // Byte-identical: the daemon renders through the same
    // core::execute path and ships the payload verbatim.
    EXPECT_EQ(served.result.payload, direct.payload);
    EXPECT_EQ(responses(*server), 1u);
}

TEST(Serve, CharacterizePayloadReplaysByteIdenticallyFromSharedCache)
{
    const std::string socket = freshPath("char.sock");
    const std::string cacheDir = freshPath("char-cache");
    core::RunRequest request;
    request.kind = "characterize";
    request.benchmark = "557.xz_r";
    request.refrateRepetitions = 1;

    std::string servedPayload;
    {
        ServerFixture server(serverOptions(socket, cacheDir));
        Client client(socket);
        client.sendLine("{\"op\":\"run\",\"id\":1,\"run\":" +
                        request.toJson() + "}");
        const serve::WireResponse served =
            serve::parseResponseLine(client.recvLine());
        ASSERT_TRUE(served.result.ok) << served.result.error;
        servedPayload = served.result.payload;
    }

    // A fresh engine on the same cache directory replays the
    // daemon's results — timed refrate repetitions included — so the
    // in-process payload is byte-identical to the served one.
    runtime::Engine warm = runtime::Engine::Builder()
                               .jobs(2)
                               .cacheDir(cacheDir)
                               .build();
    const core::RunResult direct = core::execute(request, warm);
    EXPECT_EQ(direct.payload, servedPayload);
    EXPECT_EQ(warm.cache().misses(), 0u);
}

TEST(Serve, FourConcurrentClientsGetSerialAnswersInFifoOrder)
{
    const std::string socket = freshPath("fair.sock");
    serve::ServerOptions options = serverOptions(socket);
    options.dispatchers = 4; // the pool must preserve the ordering
    ServerFixture server(options);

    // Mixed single-workload requests, three per client.
    const std::vector<std::pair<std::string, std::string>> mix = {
        {"505.mcf_r", "test"},   {"557.xz_r", "test"},
        {"541.leela_r", "test"}, {"505.mcf_r", "train"},
        {"557.xz_r", "train"},   {"541.leela_r", "train"},
    };
    // Expected payloads via the in-process API (deterministic model
    // outputs; kind "run" has no wall-time fields).
    std::map<std::string, std::string> expected;
    runtime::Engine local(1);
    for (const auto &[bench, workload] : mix) {
        core::RunRequest request;
        request.kind = "run";
        request.benchmark = bench;
        request.workload = workload;
        expected[bench + "/" + workload] =
            core::execute(request, local).payload;
    }

    constexpr int kClients = 4;
    constexpr int kPerClient = 3;
    std::vector<std::thread> threads;
    std::vector<std::string> failures(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            Client client(socket);
            // Pipeline all requests up front, then read back: the
            // response ids must come back in send order (per-client
            // FIFO) with the serial payloads.
            for (int i = 0; i < kPerClient; ++i) {
                const auto &[bench, workload] =
                    mix[(c + i * kClients) % mix.size()];
                client.sendLine(runLine(
                    static_cast<std::uint64_t>(100 * c + i), bench,
                    workload));
            }
            for (int i = 0; i < kPerClient; ++i) {
                const auto &[bench, workload] =
                    mix[(c + i * kClients) % mix.size()];
                const std::string line = client.recvLine();
                if (line.empty()) {
                    failures[c] = "unexpected EOF";
                    return;
                }
                const serve::WireResponse wire =
                    serve::parseResponseLine(line);
                if (wire.id !=
                    static_cast<std::uint64_t>(100 * c + i)) {
                    failures[c] = "response out of order";
                    return;
                }
                if (!wire.result.ok ||
                    wire.result.payload !=
                        expected[bench + "/" + workload]) {
                    failures[c] = "payload mismatch: " +
                                  wire.result.error;
                    return;
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], "") << "client " << c;
    EXPECT_EQ(responses(*server),
              static_cast<std::uint64_t>(kClients * kPerClient));
}

TEST(Serve, ShutdownDrainsAdmittedRequestsBeforeExit)
{
    const std::string socket = freshPath("drain.sock");
    auto server = std::make_optional<serve::Server>(
        serverOptions(socket));
    std::thread thread([&] { server->serve(); });

    Client client(socket);
    constexpr int kRequests = 5;
    for (int i = 1; i <= kRequests; ++i)
        client.sendLine(runLine(static_cast<std::uint64_t>(i),
                                "505.mcf_r", "test"));
    // Wait for the first answer so work is demonstrably in flight,
    // then ask for shutdown mid-stream.
    const serve::WireResponse first =
        serve::parseResponseLine(client.recvLine());
    ASSERT_TRUE(first.result.ok);
    server->beginShutdown();

    // Every admitted request is still answered (ok, in FIFO order);
    // anything that arrived after the drain began is answered with a
    // rejection — nothing is silently dropped.
    std::map<std::uint64_t, bool> answered{{first.id, true}};
    std::uint64_t lastOkId = first.id;
    for (int i = 1; i < kRequests; ++i) {
        const std::string line = client.recvLine();
        ASSERT_FALSE(line.empty()) << "EOF before all responses";
        const serve::WireResponse wire =
            serve::parseResponseLine(line);
        answered[wire.id] = wire.result.ok;
        if (wire.result.ok) {
            EXPECT_GT(wire.id, lastOkId) << "FIFO order violated";
            lastOkId = wire.id;
        } else {
            EXPECT_NE(wire.result.error.find("draining"),
                      std::string::npos)
                << wire.result.error;
        }
    }
    EXPECT_EQ(answered.size(),
              static_cast<std::size_t>(kRequests));
    EXPECT_EQ(client.recvLine(), ""); // clean EOF after the drain
    thread.join();
    EXPECT_GE(responses(*server), 1u);
    EXPECT_FALSE(fs::exists(socket)); // socket file removed
}

TEST(Serve, MetricsAnsweredOutOfBandFromTheRegistry)
{
    const std::string socket = freshPath("metrics.sock");
    ServerFixture server(serverOptions(socket));
    Client client(socket);
    client.sendLine(runLine(1, "505.mcf_r", "test"));
    ASSERT_TRUE(
        serve::parseResponseLine(client.recvLine()).result.ok);
    client.sendLine("/metrics");
    const serve::WireResponse metrics =
        serve::parseResponseLine(client.recvLine());
    ASSERT_TRUE(metrics.result.ok);
    EXPECT_EQ(metrics.result.kind, "metrics");
    EXPECT_NE(metrics.result.payload.find("serve.requests"),
              std::string::npos);
    EXPECT_NE(metrics.result.payload.find("serve.responses"),
              std::string::npos);
    EXPECT_NE(metrics.result.payload.find("executor.jobs"),
              std::string::npos);
}

TEST(Serve, InvalidRequestsAnsweredWithoutKillingTheConnection)
{
    const std::string socket = freshPath("invalid.sock");
    ServerFixture server(serverOptions(socket));
    Client client(socket);
    client.sendLine("this is not json");
    serve::WireResponse wire =
        serve::parseResponseLine(client.recvLine());
    EXPECT_FALSE(wire.result.ok);
    client.sendLine(runLine(2, "999.nope_r", "test"));
    wire = serve::parseResponseLine(client.recvLine());
    EXPECT_FALSE(wire.result.ok);
    EXPECT_NE(wire.result.error.find("unknown benchmark"),
              std::string::npos);
    // The connection still works.
    client.sendLine("/ping");
    EXPECT_TRUE(serve::parseResponseLine(client.recvLine())
                    .result.ok);
}

TEST(Serve, UnknownWorkloadAnsweredInBandThenARunIsServed)
{
    const std::string socket = freshPath("noworkload.sock");
    ServerFixture server(serverOptions(socket));
    Client client(socket);
    client.sendLine(runLine(1, "505.mcf_r", "nope"));
    serve::WireResponse wire =
        serve::parseResponseLine(client.recvLine());
    EXPECT_EQ(wire.id, 1u);
    EXPECT_FALSE(wire.result.ok);
    EXPECT_NE(wire.result.error.find("has no workload named 'nope'"),
              std::string::npos)
        << wire.result.error;
    // The same connection then answers a valid run.
    client.sendLine(runLine(2, "505.mcf_r", "test"));
    wire = serve::parseResponseLine(client.recvLine());
    EXPECT_EQ(wire.id, 2u);
    EXPECT_TRUE(wire.result.ok) << wire.result.error;
}

TEST(Serve, PastDeadlineRequestAnsweredWithStructuredError)
{
    const std::string socket = freshPath("deadline.sock");
    serve::ServerOptions options = serverOptions(socket);
    options.dispatchers = 1; // force the second request to queue
    ServerFixture server(options);
    Client client(socket);

    // A characterize run occupies the lone dispatcher for long
    // enough that the pipelined 1 ms-deadline request expires in the
    // queue (its lane is pinned until the first response is sent).
    core::RunRequest slow;
    slow.kind = "characterize";
    slow.benchmark = "505.mcf_r";
    slow.refrateRepetitions = 1;
    client.sendLine("{\"op\":\"run\",\"id\":1,\"run\":" +
                    slow.toJson() + "}");
    core::RunRequest hurried;
    hurried.kind = "run";
    hurried.benchmark = "505.mcf_r";
    hurried.workload = "test";
    hurried.deadlineMs = 1;
    client.sendLine("{\"op\":\"run\",\"id\":2,\"run\":" +
                    hurried.toJson() + "}");

    const serve::WireResponse first =
        serve::parseResponseLine(client.recvLine());
    EXPECT_EQ(first.id, 1u);
    EXPECT_TRUE(first.result.ok) << first.result.error;
    const serve::WireResponse second =
        serve::parseResponseLine(client.recvLine());
    EXPECT_EQ(second.id, 2u); // FIFO held even for the expiry
    EXPECT_FALSE(second.result.ok);
    EXPECT_EQ(second.result.code, "deadline_exceeded");
    EXPECT_NE(second.result.error.find("deadline exceeded"),
              std::string::npos);

    // The connection survives and later requests still run.
    hurried.deadlineMs = 0;
    client.sendLine("{\"op\":\"run\",\"id\":3,\"run\":" +
                    hurried.toJson() + "}");
    const serve::WireResponse third =
        serve::parseResponseLine(client.recvLine());
    EXPECT_TRUE(third.result.ok) << third.result.error;
}

// --- protocol fuzz: hostile lines must never kill the daemon ----------

TEST(ServeFuzz, OversizedLineAnsweredAndDiscardedWithoutDisconnect)
{
    const std::string socket = freshPath("oversize.sock");
    ServerFixture server(serverOptions(socket));
    Client client(socket);

    // 2 MiB of garbage on one line: one structured error, the rest
    // of the line discarded, the connection kept.
    std::string huge(2 << 20, 'x');
    client.sendLine(huge);
    const serve::WireResponse wire =
        serve::parseResponseLine(client.recvLine());
    EXPECT_FALSE(wire.result.ok);
    EXPECT_EQ(wire.result.code, "line_too_long");

    client.sendLine("/ping");
    EXPECT_TRUE(
        serve::parseResponseLine(client.recvLine()).result.ok);
    client.sendLine(runLine(5, "505.mcf_r", "test"));
    EXPECT_TRUE(
        serve::parseResponseLine(client.recvLine()).result.ok);
}

TEST(ServeFuzz, DeeplyNestedJsonHitsTheParserDepthLimit)
{
    const std::string socket = freshPath("nested.sock");
    ServerFixture server(serverOptions(socket));
    Client client(socket);

    const int depth = support::kMaxJsonDepth + 16;
    std::string nested = "{\"op\":\"run\",\"id\":1,\"run\":";
    for (int i = 0; i < depth; ++i)
        nested += '[';
    for (int i = 0; i < depth; ++i)
        nested += ']';
    nested += '}';
    client.sendLine(nested);
    const serve::WireResponse wire =
        serve::parseResponseLine(client.recvLine());
    EXPECT_FALSE(wire.result.ok);
    EXPECT_NE(wire.result.error.find("nesting too deep"),
              std::string::npos);

    client.sendLine("/ping");
    EXPECT_TRUE(
        serve::parseResponseLine(client.recvLine()).result.ok);
}

TEST(ServeFuzz, TruncatedUtf8AndRawBytesGetStructuredErrors)
{
    const std::string socket = freshPath("utf8.sock");
    ServerFixture server(serverOptions(socket));
    Client client(socket);

    // A truncated UTF-8 sequence (lead byte, no continuation) and
    // assorted raw bytes — none of it valid JSON, none of it fatal
    // to the connection.
    const std::vector<std::string> lines = {
        "\xc3",
        "{\"op\":\"ping\",\"id\":1,\"\xe2\x82\":2}",
        "\xff\xfe{\"op\":\"ping\"}",
    };
    for (const std::string &line : lines) {
        client.sendLine(line);
        const serve::WireResponse wire =
            serve::parseResponseLine(client.recvLine());
        EXPECT_FALSE(wire.result.ok) << line;
    }
    client.sendLine("/ping");
    EXPECT_TRUE(
        serve::parseResponseLine(client.recvLine()).result.ok);
}

TEST(ServeFuzz, ControlPlaneInterleavedMidPipelineStaysInBand)
{
    const std::string socket = freshPath("interleave.sock");
    ServerFixture server(serverOptions(socket));
    Client client(socket);

    // Run requests pipelined with slash commands between them: the
    // control plane answers out of band (reader thread), run
    // responses keep FIFO order among themselves.
    client.sendLine(runLine(1, "505.mcf_r", "test"));
    client.sendLine("/ping");
    client.sendLine(runLine(2, "557.xz_r", "test"));
    client.sendLine("/metrics");
    client.sendLine(runLine(3, "541.leela_r", "test"));

    std::vector<std::uint64_t> runIds;
    int controlAnswers = 0;
    for (int i = 0; i < 5; ++i) {
        const std::string line = client.recvLine();
        ASSERT_FALSE(line.empty());
        const serve::WireResponse wire =
            serve::parseResponseLine(line);
        EXPECT_TRUE(wire.result.ok) << wire.result.error;
        if (wire.result.kind == "ping" ||
            wire.result.kind == "metrics")
            ++controlAnswers;
        else
            runIds.push_back(wire.id);
    }
    EXPECT_EQ(controlAnswers, 2);
    EXPECT_EQ(runIds, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(ServeFuzz, UnknownPriorityAndDeadlineValuesAreRejectedInBand)
{
    const std::string socket = freshPath("badprio.sock");
    ServerFixture server(serverOptions(socket));
    Client client(socket);

    const std::vector<std::string> bad = {
        "{\"op\":\"run\",\"id\":1,\"run\":{\"kind\":\"run\","
        "\"benchmark\":\"505.mcf_r\",\"workload\":\"test\","
        "\"deadline_ms\":-7}}",
        "{\"op\":\"run\",\"id\":2,\"run\":{\"kind\":\"run\","
        "\"benchmark\":\"505.mcf_r\",\"workload\":\"test\","
        "\"deadline_ms\":1e18}}",
        "{\"op\":\"run\",\"id\":3,\"run\":{\"kind\":\"run\","
        "\"benchmark\":\"505.mcf_r\",\"workload\":\"test\","
        "\"deadline_ms\":864000001}}",
        "{\"op\":\"run\",\"id\":4,\"run\":{\"kind\":\"run\","
        "\"benchmark\":\"505.mcf_r\",\"workload\":\"test\","
        "\"priority\":100}}",
    };
    for (const std::string &line : bad) {
        client.sendLine(line);
        const serve::WireResponse wire =
            serve::parseResponseLine(client.recvLine());
        EXPECT_FALSE(wire.result.ok) << line;
    }
    // The largest deadline is admitted and served normally.
    client.sendLine(
        "{\"op\":\"run\",\"id\":5,\"run\":{\"kind\":\"run\","
        "\"benchmark\":\"505.mcf_r\",\"workload\":\"test\","
        "\"deadline_ms\":864000000}}");
    const serve::WireResponse ok =
        serve::parseResponseLine(client.recvLine());
    EXPECT_TRUE(ok.result.ok) << ok.result.error;
}

/** Keys that are not request fields — queue priority, a
 * test-workload filter, the pool size, the segment-parallel and
 * batched execution modes — are unknown keys at any value: each is
 * answered with an in-band error, and the connection keeps serving. */
TEST(ServeFuzz, RemovedExecutionModesAreRejectedInBand)
{
    const std::string socket = freshPath("removed.sock");
    ServerFixture server(serverOptions(socket));
    Client client(socket);

    const std::vector<std::string> removed = {
        "\"priority\":0",           "\"priority\":7",
        "\"include_test\":true",    "\"include_test\":false",
        "\"jobs\":1",               "\"segments\":1",
        "\"segment_warmup_uops\":0", "\"segment_target_uops\":0",
        "\"batched\":false",
    };
    std::uint64_t id = 0;
    for (const std::string &member : removed) {
        const std::string line =
            "{\"op\":\"run\",\"id\":" + std::to_string(++id) +
            ",\"run\":{\"kind\":\"run\",\"benchmark\":\"505.mcf_r\","
            "\"workload\":\"test\"," +
            member + "}}";
        client.sendLine(line);
        const serve::WireResponse wire =
            serve::parseResponseLine(client.recvLine());
        EXPECT_FALSE(wire.result.ok) << line;
        EXPECT_NE(wire.result.error.find("request: unknown key"),
                  std::string::npos)
            << wire.result.error;
        // The connection still works after each rejection.
        client.sendLine("/ping");
        EXPECT_TRUE(serve::parseResponseLine(client.recvLine())
                        .result.ok)
            << member;
    }
    EXPECT_EQ(responses(*server), 0u); // nothing reached the queue
    client.sendLine(runLine(++id, "505.mcf_r", "test"));
    const serve::WireResponse ok =
        serve::parseResponseLine(client.recvLine());
    EXPECT_TRUE(ok.result.ok) << ok.result.error;
}

TEST(Serve, TwoDaemonsTolerateRacingOnOneCacheDirectory)
{
    const std::string cacheDir = freshPath("race-cache");
    const std::string socketA = freshPath("race-a.sock");
    const std::string socketB = freshPath("race-b.sock");
    ServerFixture a(serverOptions(socketA, cacheDir));
    ServerFixture b(serverOptions(socketB, cacheDir));

    // Both daemons characterize the same benchmark concurrently —
    // overlapping cache keys, racing disk writes.
    core::RunRequest request;
    request.kind = "run";
    request.benchmark = "541.leela_r";
    request.workload = "train";
    std::string payloadA, payloadB;
    std::thread ta([&] {
        Client client(socketA);
        client.sendLine("{\"op\":\"run\",\"id\":1,\"run\":" +
                        request.toJson() + "}");
        payloadA =
            serve::parseResponseLine(client.recvLine())
                .result.payload;
    });
    std::thread tb([&] {
        Client client(socketB);
        client.sendLine("{\"op\":\"run\",\"id\":1,\"run\":" +
                        request.toJson() + "}");
        payloadB =
            serve::parseResponseLine(client.recvLine())
                .result.payload;
    });
    ta.join();
    tb.join();
    ASSERT_FALSE(payloadA.empty());
    EXPECT_EQ(payloadA, payloadB); // deterministic: the race writes
                                   // identical bytes
    EXPECT_EQ(a->engine()
                      .metrics()
                      .counter("cache.disk_write_failures")
                      .value() +
                  b->engine()
                      .metrics()
                      .counter("cache.disk_write_failures")
                      .value(),
              0u);
}

TEST(Serve, SecondDaemonOnTheSameSocketIsRefused)
{
    const std::string socket = freshPath("exclusive.sock");
    ServerFixture server(serverOptions(socket));
    Client probe(socket); // ensure the first daemon is listening
    serve::Server second(serverOptions(socket));
    EXPECT_THROW(second.serve(), support::FatalError);
}

} // namespace
