#include "core/request.h"

#include <sstream>

#include "core/report.h"
#include "core/suite.h"
#include "support/check.h"
#include "support/text.h"

namespace alberta::core {

namespace {

using support::jsonQuote;

/** Strip the rendered deliverable's trailing newline: payloads embed
 * verbatim inside one response line, so they must be newline-free. */
std::string
chompPayload(std::string text)
{
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

} // namespace

std::string
RunRequest::toJson() const
{
    std::ostringstream os;
    os << "{\"kind\":" << jsonQuote(kind)
       << ",\"benchmark\":" << jsonQuote(benchmark)
       << ",\"workload\":" << jsonQuote(workload)
       << ",\"refrate_repetitions\":" << refrateRepetitions;
    // deadline_ms is omitted at its default, so serialize -> parse ->
    // serialize is byte-stable both ways.
    if (deadlineMs != 0)
        os << ",\"deadline_ms\":" << deadlineMs;
    os << '}';
    return os.str();
}

RunRequest
RunRequest::fromJson(const support::JsonValue &value)
{
    RunRequest request;
    for (const auto &[key, member] : value.asObject()) {
        if (key == "kind")
            request.kind = member.asString();
        else if (key == "benchmark")
            request.benchmark = member.asString();
        else if (key == "workload")
            request.workload = member.asString();
        else if (key == "refrate_repetitions")
            request.refrateRepetitions =
                static_cast<int>(member.asUint(1000));
        else if (key == "deadline_ms")
            request.deadlineMs = static_cast<std::int64_t>(
                member.asUint(RunRequest::kMaxDeadlineMs));
        else
            support::fatal("request: unknown key '", key, "'");
    }
    request.validate();
    return request;
}

RunRequest
RunRequest::fromJsonText(std::string_view text)
{
    return fromJson(support::parseJson(text));
}

void
RunRequest::validate() const
{
    const bool known = kind == "characterize" || kind == "suite" ||
                       kind == "report" || kind == "run";
    support::fatalIf(!known, "request: unknown kind '", kind,
                     "' (expected characterize, suite, report, or "
                     "run)");
    support::fatalIf((kind == "characterize" || kind == "report" ||
                      kind == "run") &&
                         benchmark.empty(),
                     "request: kind '", kind,
                     "' requires a benchmark");
    support::fatalIf(kind == "run" && workload.empty(),
                     "request: kind 'run' requires a workload");
    support::fatalIf(refrateRepetitions < 1,
                     "request: refrate_repetitions must be >= 1");
    support::fatalIf(deadlineMs < 0 || deadlineMs > kMaxDeadlineMs,
                     "request: deadline_ms must be in [0, ",
                     kMaxDeadlineMs, "], got ", deadlineMs);
}

std::string
RunResult::toJson() const
{
    std::ostringstream os;
    os << "{\"ok\":" << (ok ? "true" : "false")
       << ",\"kind\":" << jsonQuote(kind);
    if (!ok && !code.empty())
        os << ",\"code\":" << jsonQuote(code);
    if (!ok)
        os << ",\"error\":" << jsonQuote(error);
    // The payload goes last and is spliced in verbatim, so clients
    // can recover it byte-identically by slicing the envelope.
    if (ok)
        os << ",\"payload\":" << payload;
    os << '}';
    return os.str();
}

RunResult
RunResult::fromJsonText(std::string_view text)
{
    // Validate the envelope as a whole first — the payload substring
    // below is only trusted because the full line parses.
    const support::JsonValue value = support::parseJson(text);
    RunResult result;
    result.ok = value.at("ok").asBool();
    result.kind = value.at("kind").asString();
    if (const support::JsonValue *code = value.find("code"))
        result.code = code->asString();
    if (const support::JsonValue *error = value.find("error"))
        result.error = error->asString();
    if (!result.ok)
        return result;
    const std::string_view marker = ",\"payload\":";
    const std::size_t at = text.find(marker);
    support::fatalIf(at == std::string_view::npos,
                     "result: missing payload member");
    std::string_view tail = text.substr(at + marker.size());
    while (!tail.empty() &&
           (tail.back() == '\n' || tail.back() == '\r' ||
            tail.back() == ' '))
        tail.remove_suffix(1);
    support::fatalIf(tail.empty() || tail.back() != '}',
                     "result: malformed envelope");
    tail.remove_suffix(1); // the envelope's closing brace
    result.payload = std::string(tail);
    return result;
}

RunResult
execute(const RunRequest &request, runtime::Engine &engine,
        std::vector<Characterization> *rows)
{
    request.validate();
    RunResult result;
    result.kind = request.kind;
    const ReportWriter writer(ReportFormat::Json, &engine);
    std::vector<Characterization> characterized;
    if (request.kind == "suite") {
        characterized = characterizeTable2(request, engine);
        result.payload = chompPayload(writer.table2(characterized));
    } else {
        const auto bm = makeBenchmark(request.benchmark);
        characterized.push_back(
            characterize(*bm, request, engine));
        const Characterization &c = characterized.front();
        result.payload = chompPayload(
            request.kind == "report" ? writer.report(c)
            : request.kind == "run"  ? writer.run(c)
                                     : writer.table2(characterized));
        if (request.kind == "run")
            engine.metrics().counter("request.runs").add(1);
    }
    if (rows)
        *rows = std::move(characterized);
    return result;
}

} // namespace alberta::core
