#include "core/report.h"

#include <sstream>

#include "support/check.h"
#include "support/json.h"
#include "support/table.h"

namespace alberta::core {

namespace {

using support::formatFixed;
using support::formatPercent;
using support::jsonNumber;
using support::jsonQuote;

/** Render header+rows as a Markdown pipe table. */
std::string
pipeTable(const std::vector<std::string> &header,
          const std::vector<std::vector<std::string>> &rows)
{
    std::ostringstream os;
    os << '|';
    for (const auto &cell : header)
        os << ' ' << cell << " |";
    os << "\n|";
    for (std::size_t i = 0; i < header.size(); ++i)
        os << "---|";
    os << '\n';
    for (const auto &row : rows) {
        os << '|';
        for (const auto &cell : row)
            os << ' ' << cell << " |";
        os << '\n';
    }
    return os.str();
}

/** Render header+rows as an aligned text table. */
std::string
textTable(const std::vector<std::string> &header,
          const std::vector<std::vector<std::string>> &rows)
{
    support::Table table(header);
    for (const auto &row : rows)
        table.addRow(row);
    std::ostringstream os;
    table.print(os);
    return os.str();
}

/** The Markdown workload-behaviour document (text format reuses it
 * verbatim). */
std::string
markdownReport(const Characterization &c)
{
    std::ostringstream os;

    os << "# " << c.benchmark << " — workload behaviour report\n\n";
    os << "Application area: " << c.area << "\n\n";
    os << "Workloads characterized: " << c.workloadNames.size()
       << "\n";
    if (!c.refrateRuns.empty()) {
        os << "refrate time: " << formatFixed(c.refrateSeconds, 3)
           << " s (mean of " << c.refrateRuns.size() << " runs:";
        for (const double t : c.refrateRuns)
            os << ' ' << formatFixed(t, 3);
        os << ")\n";
    }

    os << "\n## Per-workload top-down fractions\n\n";
    os << "| workload | front-end | back-end | bad-spec | retiring "
          "|\n";
    os << "|---|---|---|---|---|\n";
    for (std::size_t i = 0; i < c.workloadNames.size(); ++i) {
        const auto &r = c.topdownPerWorkload[i];
        os << "| " << c.workloadNames[i] << " | "
           << formatPercent(r.frontend, 1) << "% | "
           << formatPercent(r.backend, 1) << "% | "
           << formatPercent(r.badspec, 1) << "% | "
           << formatPercent(r.retiring, 1) << "% |\n";
    }

    os << "\n## Method coverage (percent of execution)\n\n";
    os << "| workload |";
    for (const auto &method : c.coverage.methods)
        os << ' ' << method << " |";
    os << "\n|---|";
    for (std::size_t j = 0; j < c.coverage.methods.size(); ++j)
        os << "---|";
    os << "\n";
    for (std::size_t i = 0; i < c.workloadNames.size(); ++i) {
        os << "| " << c.workloadNames[i] << " |";
        for (std::size_t j = 0; j < c.coverage.methods.size(); ++j)
            os << ' ' << formatFixed(c.coverage.matrix[i][j], 1)
               << " |";
        os << "\n";
    }

    os << "\n## Section V summaries\n\n";
    os << "| category | mu_g | sigma_g | V |\n|---|---|---|---|\n";
    const auto row = [&](const char *name,
                         const stats::GeoSummary &s) {
        os << "| " << name << " | " << formatPercent(s.mean, 2)
           << "% | " << formatFixed(s.stddev, 2) << " | "
           << formatFixed(s.variation, 2) << " |\n";
    };
    row("front-end bound", c.topdown.frontend);
    row("back-end bound", c.topdown.backend);
    row("bad speculation", c.topdown.badspec);
    row("retiring", c.topdown.retiring);

    os << "\n- mu_g(V) = " << formatFixed(c.topdown.muGV, 2) << "\n";
    os << "- mu_g(M) = " << formatFixed(c.coverage.muGM, 2) << "\n";
    if (c.topdown.badspec.mean < 0.005 ||
        c.topdown.frontend.mean < 0.005) {
        os << "\n> **Caveat (paper, Section V-B):** a category's "
              "geometric mean is close to\n> zero, so mu_g(V) is "
              "inflated by the small-mean pathology; do not compare "
              "it\n> against other benchmarks without looking into "
              "the data.\n";
    }
    return os.str();
}

/** The complete characterization as one JSON object: Table II
 * summaries plus the Figure 1 (top-down) and Figure 2 (coverage)
 * per-workload series. */
std::string
jsonReport(const Characterization &c)
{
    std::ostringstream os;
    os << "{\"benchmark\":" << jsonQuote(c.benchmark)
       << ",\"area\":" << jsonQuote(c.area);

    os << ",\"workloads\":[";
    for (std::size_t i = 0; i < c.workloadNames.size(); ++i) {
        const auto &r = c.topdownPerWorkload[i];
        if (i)
            os << ',';
        os << "{\"name\":" << jsonQuote(c.workloadNames[i])
           << ",\"frontend\":" << jsonNumber(r.frontend)
           << ",\"backend\":" << jsonNumber(r.backend)
           << ",\"badspec\":" << jsonNumber(r.badspec)
           << ",\"retiring\":" << jsonNumber(r.retiring)
           // uint64 checksums exceed JSON's exact-integer range;
           // emit as strings so nothing rounds.
           << ",\"checksum\":\"" << c.checksumPerWorkload[i]
           << "\"}";
    }
    os << ']';

    os << ",\"coverage\":{\"methods\":[";
    for (std::size_t j = 0; j < c.coverage.methods.size(); ++j) {
        if (j)
            os << ',';
        os << jsonQuote(c.coverage.methods[j]);
    }
    os << "],\"matrix\":[";
    for (std::size_t i = 0; i < c.coverage.matrix.size(); ++i) {
        if (i)
            os << ',';
        os << '[';
        for (std::size_t j = 0; j < c.coverage.matrix[i].size();
             ++j) {
            if (j)
                os << ',';
            os << jsonNumber(c.coverage.matrix[i][j]);
        }
        os << ']';
    }
    os << "],\"mu_g_m\":" << jsonNumber(c.coverage.muGM) << '}';

    const auto summary = [&](const char *name,
                             const stats::GeoSummary &s) {
        os << ',' << jsonQuote(name) << ":{\"mu_g\":"
           << jsonNumber(s.mean)
           << ",\"sigma_g\":" << jsonNumber(s.stddev)
           << ",\"variation\":" << jsonNumber(s.variation) << '}';
    };
    summary("frontend", c.topdown.frontend);
    summary("backend", c.topdown.backend);
    summary("badspec", c.topdown.badspec);
    summary("retiring", c.topdown.retiring);
    os << ",\"mu_g_v\":" << jsonNumber(c.topdown.muGV);

    os << ",\"refrate_seconds\":" << jsonNumber(c.refrateSeconds)
       << ",\"refrate_runs\":[";
    for (std::size_t i = 0; i < c.refrateRuns.size(); ++i) {
        if (i)
            os << ',';
        os << jsonNumber(c.refrateRuns[i]);
    }
    os << "]}\n";
    return os.str();
}

/** One Table II row as a JSON object keyed by Table2Field::key. */
std::string
jsonTable2Row(const Characterization &c)
{
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const Table2Field &f : table2Fields(c)) {
        if (!first)
            os << ',';
        first = false;
        os << jsonQuote(f.key) << ':';
        if (f.numeric)
            os << jsonNumber(f.number);
        else
            os << jsonQuote(f.text);
    }
    os << '}';
    return os.str();
}

/** The Table II display header (labels are value-independent). */
std::vector<std::string>
table2Header()
{
    std::vector<std::string> out;
    for (const Table2Field &f : table2Fields(Characterization{}))
        out.push_back(f.column);
    return out;
}

/** One formatted Table II row, matching @ref table2Header. */
std::vector<std::string>
table2Row(const Characterization &c)
{
    std::vector<std::string> out;
    for (const Table2Field &f : table2Fields(c))
        out.push_back(f.text);
    return out;
}

} // namespace

ReportFormat
parseReportFormat(std::string_view name)
{
    if (name == "text")
        return ReportFormat::Text;
    if (name == "md" || name == "markdown")
        return ReportFormat::Markdown;
    if (name == "json")
        return ReportFormat::Json;
    support::fatal("report: unknown format '", std::string(name),
                   "' (expected text, md, or json)");
}

std::vector<Table2Field>
table2Fields(const Characterization &c)
{
    std::vector<Table2Field> fields;
    const auto text = [&](std::string column, std::string key,
                          std::string value) {
        fields.push_back(
            {std::move(column), std::move(key), std::move(value), 0.0,
             false});
    };
    const auto number = [&](std::string column, std::string key,
                            std::string cell, double raw) {
        fields.push_back({std::move(column), std::move(key),
                          std::move(cell), raw, true});
    };
    const auto geo = [&](const char *prefix, const char *keyStem,
                         const stats::GeoSummary &s) {
        number(std::string(prefix) + ".mu_g",
               std::string(keyStem) + "_mu_g_percent",
               formatPercent(s.mean, 1), s.mean * 100.0);
        number(std::string(prefix) + ".sg",
               std::string(keyStem) + "_sigma_g",
               formatFixed(s.stddev, 1), s.stddev);
    };

    text("Benchmark", "benchmark", c.benchmark);
    number("#wl", "workloads",
           std::to_string(c.workloadNames.size()),
           static_cast<double>(c.workloadNames.size()));
    geo("f", "frontend", c.topdown.frontend);
    geo("b", "backend", c.topdown.backend);
    geo("s", "badspec", c.topdown.badspec);
    geo("r", "retiring", c.topdown.retiring);
    number("mu_g(V)", "mu_g_v", formatFixed(c.topdown.muGV, 1),
           c.topdown.muGV);
    number("mu_g(M)", "mu_g_m", formatFixed(c.coverage.muGM, 2),
           c.coverage.muGM);
    number("refrate(s)", "refrate_seconds",
           formatFixed(c.refrateSeconds, 2), c.refrateSeconds);
    return fields;
}

std::string
ReportWriter::table2(const std::vector<Characterization> &rows) const
{
    obs::Span span(engine_ ? &engine_->tracer() : nullptr, "table2",
                   "report");
    span.note("rows", static_cast<std::uint64_t>(rows.size()));

    if (format_ == ReportFormat::Json) {
        std::ostringstream os;
        os << '[';
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (i)
                os << ',';
            os << jsonTable2Row(rows[i]);
        }
        os << "]\n";
        return os.str();
    }
    std::vector<std::vector<std::string>> cells;
    for (const auto &c : rows)
        cells.push_back(table2Row(c));
    return format_ == ReportFormat::Markdown
               ? pipeTable(table2Header(), cells)
               : textTable(table2Header(), cells);
}

std::string
ReportWriter::report(const Characterization &c) const
{
    obs::Span span(engine_ ? &engine_->tracer() : nullptr, "report",
                   "report");
    span.note("benchmark", c.benchmark);
    return format_ == ReportFormat::Json ? jsonReport(c)
                                         : markdownReport(c);
}

std::string
ReportWriter::run(const Characterization &c) const
{
    obs::Span span(engine_ ? &engine_->tracer() : nullptr, "run",
                   "report");
    span.note("benchmark", c.benchmark);
    const stats::TopdownRatios &r = c.topdownPerWorkload.front();
    std::ostringstream os;
    if (format_ == ReportFormat::Json) {
        os << "{\"benchmark\":" << jsonQuote(c.benchmark)
           << ",\"workload\":" << jsonQuote(c.workloadNames.front())
           << ",\"frontend\":" << jsonNumber(r.frontend)
           << ",\"backend\":" << jsonNumber(r.backend)
           << ",\"badspec\":" << jsonNumber(r.badspec)
           << ",\"retiring\":" << jsonNumber(r.retiring)
           << ",\"uops\":" << c.uopsPerWorkload.front()
           // uint64 checksums exceed JSON's exact-integer range;
           // emit as a string so nothing rounds (as jsonReport does).
           << ",\"checksum\":\"" << c.checksumPerWorkload.front()
           << "\"}\n";
        return os.str();
    }
    os << c.benchmark << " / " << c.workloadNames.front() << "\n";
    if (!c.refrateRuns.empty()) {
        os << "  time      : " << formatFixed(c.refrateSeconds, 4)
           << " s (mean of " << c.refrateRuns.size()
           << " pool repetitions)\n";
    }
    os << "  uops      : " << c.uopsPerWorkload.front() << "\n"
       << "  top-down  : f=" << formatPercent(r.frontend, 1)
       << "% b=" << formatPercent(r.backend, 1)
       << "% s=" << formatPercent(r.badspec, 1)
       << "% r=" << formatPercent(r.retiring, 1) << "%\n"
       << "  checksum  : " << c.checksumPerWorkload.front() << "\n";
    return os.str();
}

std::string
ReportWriter::metrics(
    const std::vector<obs::MetricSample> &samples) const
{
    obs::Span span(engine_ ? &engine_->tracer() : nullptr, "metrics",
                   "report");
    span.note("samples", static_cast<std::uint64_t>(samples.size()));

    if (format_ == ReportFormat::Json) {
        std::ostringstream os;
        os << '[';
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const auto &s = samples[i];
            if (i)
                os << ',';
            os << "{\"name\":" << jsonQuote(s.name)
               << ",\"kind\":" << jsonQuote(s.kind)
               << ",\"value\":" << jsonNumber(s.value);
            if (s.kind == "histogram") {
                os << ",\"count\":" << s.count
                   << ",\"sum\":" << jsonNumber(s.sum)
                   << ",\"min\":" << jsonNumber(s.min)
                   << ",\"max\":" << jsonNumber(s.max);
            }
            os << '}';
        }
        os << "]\n";
        return os.str();
    }

    const std::vector<std::string> header = {"metric", "kind",
                                             "value", "detail"};
    std::vector<std::vector<std::string>> cells;
    for (const auto &s : samples) {
        std::string detail;
        if (s.kind == "histogram") {
            detail = "n=" + std::to_string(s.count) +
                     " min=" + formatFixed(s.min, 6) +
                     " max=" + formatFixed(s.max, 6) +
                     " sum=" + formatFixed(s.sum, 6);
        }
        // A counter counts whole events: print it as an integer.
        cells.push_back({s.name, s.kind,
                         s.kind == "counter" ? std::to_string(s.count)
                                             : formatFixed(s.value, 6),
                         std::move(detail)});
    }
    return format_ == ReportFormat::Markdown
               ? pipeTable(header, cells)
               : textTable(header, cells);
}

} // namespace alberta::core
