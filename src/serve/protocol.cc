#include "serve/protocol.h"

#include "support/check.h"
#include "support/json.h"

namespace alberta::serve {

namespace {

bool
knownOp(const std::string &op)
{
    return op == "run" || op == "metrics" || op == "ping" ||
           op == "shutdown";
}

} // namespace

WireRequest
parseRequestLine(std::string_view line)
{
    WireRequest out;
    // Slash shorthand: "/metrics" etc., for interactive clients.
    if (!line.empty() && line.front() == '/') {
        out.op = std::string(line.substr(1));
        support::fatalIf(!knownOp(out.op) || out.op == "run",
                         "protocol: unknown command '", line, "'");
        return out;
    }
    const support::JsonValue value = support::parseJson(line);
    bool sawRun = false;
    for (const auto &[key, member] : value.asObject()) {
        if (key == "op")
            out.op = member.asString();
        else if (key == "id")
            out.id = member.asUint();
        else if (key == "run") {
            out.run = core::RunRequest::fromJson(member);
            sawRun = true;
        } else
            support::fatal("protocol: unknown key '", key, "'");
    }
    support::fatalIf(!knownOp(out.op), "protocol: unknown op '",
                     out.op,
                     "' (expected run, metrics, ping, or shutdown)");
    support::fatalIf(out.op == "run" && !sawRun,
                     "protocol: op 'run' requires a \"run\" member");
    return out;
}

std::string
renderResponse(std::uint64_t id, const core::RunResult &result)
{
    // The id leads; the rest is the RunResult envelope unchanged, so
    // the payload stays the verbatim last member.
    std::string envelope = result.toJson();
    return "{\"id\":" + std::to_string(id) + "," +
           envelope.substr(1);
}

std::string
renderError(std::uint64_t id, std::string_view kind,
            std::string_view message, std::string_view code)
{
    core::RunResult result;
    result.ok = false;
    result.kind = std::string(kind);
    result.code = std::string(code);
    result.error = std::string(message);
    return renderResponse(id, result);
}

WireResponse
parseResponseLine(std::string_view line)
{
    WireResponse out;
    const support::JsonValue value = support::parseJson(line);
    out.id = value.at("id").asUint();
    // RunResult::fromJsonText revalidates and slices the payload out
    // of the trailing member byte-identically.
    out.result = core::RunResult::fromJsonText(line);
    return out;
}

} // namespace alberta::serve
