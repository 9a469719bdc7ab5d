/**
 * @file
 * The first-class request API: one serializable RunRequest/RunResult
 * pair is the single public way to specify and deliver a
 * characterization run.
 *
 * Every entry point — `alberta_cli`, the `alberta_serve` daemon, the
 * bench harnesses, and tests — constructs a RunRequest instead of
 * poking fields on ad-hoc option structs, and the pair round-trips
 * through JSON (via support::json), so the exact run a client asked
 * for over the wire is the exact run the CLI would perform locally:
 *
 * @code
 *   core::RunRequest request;
 *   request.kind = "suite";
 *   core::RunResult result = core::execute(request, engine);
 *   std::cout << result.payload << "\n"; // Table II JSON
 * @endcode
 *
 * RunResult::payload carries the rendered JSON deliverable verbatim
 * (no trailing newline); RunResult::toJson() embeds it unmodified as
 * the envelope's last member, so a served payload is byte-identical
 * to the CLI's `--format json` output for the same request and cache.
 */
#ifndef ALBERTA_CORE_REQUEST_H
#define ALBERTA_CORE_REQUEST_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.h"

namespace alberta::runtime {
class Engine;
} // namespace alberta::runtime

namespace alberta::core {

struct Characterization;

/**
 * A fully serializable run specification: what to run (kind,
 * benchmark, workload) plus the model configuration (repetitions,
 * included workloads, worker threads). This is the payload the daemon accepts
 * over its socket and the options block every in-process entry point
 * takes; see @ref execute for the kinds.
 */
struct RunRequest
{
    /** "characterize" | "suite" | "report" | "run" | "metrics". */
    std::string kind = "characterize";
    /** Benchmark id (required for characterize/report/run). */
    std::string benchmark;
    /** Workload name (required for kind "run"). */
    std::string workload;
    /** Timed refrate repetitions (the paper's three). */
    int refrateRepetitions = 3;
    /** Count "test" among the characterized workloads. */
    bool includeTest = true;
    /**
     * Worker threads when no Engine is supplied to characterize():
     * 1 = serial, 0 = runtime::Executor::defaultJobs(), N > 1 = a
     * local pool of N. Ignored when an Engine is given (the daemon
     * always runs requests through its shared engine's pool).
     */
    int jobs = 1;
    /**
     * Scheduling priority for the daemon's dispatcher pool:
     * [0, kMaxPriority], higher is served earlier across clients
     * (per-client order is never reordered). 0 — the default — is
     * omitted from toJson(), so a request without a priority
     * round-trips byte-identically.
     */
    int priority = 0;
    /**
     * Optional queue deadline, milliseconds from admission. A request
     * still queued when its deadline passes is answered with a
     * structured `deadline_exceeded` error instead of executing.
     * 0 — the default — means no deadline and, like priority, is
     * omitted from the JSON form.
     */
    std::int64_t deadlineMs = 0;

    /** Upper bound for @ref priority (inclusive). */
    static constexpr int kMaxPriority = 100;
    /** Upper bound for @ref deadlineMs: 10 days, far beyond any
     * sane queue wait but well inside JSON's exact-integer range. */
    static constexpr std::int64_t kMaxDeadlineMs = 864'000'000;

    /** This request as one JSON object (round-trips via fromJson). */
    std::string toJson() const;

    /**
     * Parse from a JSON object; unknown keys and ill-typed values
     * are fatal, absent keys keep their defaults. The keys of the
     * removed segment and batched execution modes (`segments`,
     * `segment_warmup_uops`, `segment_target_uops`, `batched`) are
     * still accepted at their exact-path values (`segments` 1,
     * `batched` false, any warm-up/target count) and ignored, so
     * lines from older clients keep parsing; any other value is
     * fatal with a message naming the removed feature.
     */
    static RunRequest fromJson(const support::JsonValue &value);

    /** @ref fromJson over parsed @p text. */
    static RunRequest fromJsonText(std::string_view text);

    /** Raise FatalError unless the request is executable (known
     * kind, required names present, numeric ranges sane). */
    void validate() const;
};

/**
 * The rendered deliverable for one executed RunRequest. `payload` is
 * the JSON document the request's kind produces — a Table II row
 * array, a full report object, a single-workload measurement, or the
 * metrics table — without a trailing newline. Deterministic model
 * outputs only, except refrate timings which are part of Table II by
 * construction (and replay bit-identically from a shared cache).
 */
struct RunResult
{
    bool ok = true;
    std::string kind;    //!< echoes RunRequest::kind
    /** Machine-readable failure class ("" for ad-hoc errors): e.g.
     * "deadline_exceeded", "queue_full", "draining",
     * "line_too_long". Only meaningful when !ok. */
    std::string code;
    std::string error;   //!< set when !ok (payload empty)
    std::string payload; //!< verbatim JSON deliverable

    /**
     * The wire form: `{"ok":...,"kind":...,"payload":...}` with the
     * payload embedded verbatim as the last member (or "code"/"error"
     * members instead when !ok; "code" is omitted when empty, so
     * successful envelopes are byte-identical to PR 7).
     */
    std::string toJson() const;

    /**
     * Parse a wire-form result. The payload is recovered
     * byte-identically (it is extracted as the envelope's trailing
     * member, then validated as JSON — never re-encoded).
     */
    static RunResult fromJsonText(std::string_view text);
};

/**
 * Execute @p request through @p engine and render its deliverable.
 *
 * Kinds:
 *   - "characterize": one benchmark's Table II row (JSON array of 1)
 *   - "suite": the full Table II through the suite scheduler
 *   - "report": one benchmark's complete characterization object
 *   - "run": one (benchmark, workload) model run — deterministic
 *     outputs only (top-down fractions, uops, checksum)
 *   - "metrics": the engine's metrics snapshot
 *
 * When @p rows is non-null the characterized rows are copied out for
 * programmatic consumers (the CLI's text/Markdown formats).
 *
 * Raises support::FatalError on an invalid request (unknown kind or
 * benchmark, bad ranges); the daemon converts that into an error
 * response, the CLI into a usage error — identical diagnostics.
 */
RunResult execute(const RunRequest &request, runtime::Engine &engine,
                  std::vector<Characterization> *rows = nullptr);

} // namespace alberta::core

#endif // ALBERTA_CORE_REQUEST_H
