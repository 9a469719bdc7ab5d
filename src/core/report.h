/**
 * @file
 * Unified output formatting for the characterization pipeline.
 *
 * ReportWriter renders every deliverable — Table II rows, the
 * per-benchmark workload-behaviour report (whose per-workload top-down
 * and coverage series are the Figure 1/2 data), and the end-of-run
 * metrics table — in one of three formats: aligned text, Markdown, or
 * machine-readable JSON. Every Table II format is rendered from the
 * same structured fields (@ref table2Fields), so the human and
 * machine outputs can never drift apart.
 */
#ifndef ALBERTA_CORE_REPORT_H
#define ALBERTA_CORE_REPORT_H

#include <string>
#include <string_view>
#include <vector>

#include "core/suite.h"

namespace alberta::core {

/** Output format for @ref ReportWriter. */
enum class ReportFormat
{
    Text,     //!< aligned ASCII tables (the CLI default)
    Markdown, //!< pipe tables / the report document
    Json,     //!< machine-readable JSON
};

/** Parse a `--format` argument: "text", "md", or "json" (fatal
 * otherwise). */
ReportFormat parseReportFormat(std::string_view name);

/** One structured Table II cell: display column, machine key, the
 * formatted text the text and Markdown tables print, and the raw
 * value JSON emits. */
struct Table2Field
{
    std::string column; //!< display header, e.g. "f.mu_g"
    std::string key;    //!< machine key, e.g. "frontend_mu_g_percent"
    std::string text;   //!< formatted cell
    double number = 0.0; //!< raw value (numeric fields)
    bool numeric = true; //!< false: JSON emits @ref text as a string
};

/** One characterized benchmark's structured Table II row. */
std::vector<Table2Field> table2Fields(const Characterization &c);

/**
 * Format-aware renderer for every pipeline deliverable. When
 * constructed with an engine, each render is traced as one span
 * (category "report") through the engine's tracer.
 */
class ReportWriter
{
  public:
    explicit ReportWriter(ReportFormat format = ReportFormat::Text,
                          runtime::Engine *engine = nullptr)
        : format_(format), engine_(engine)
    {
    }

    ReportFormat format() const { return format_; }

    /** Table II rows for @p rows (one per characterized benchmark). */
    std::string
    table2(const std::vector<Characterization> &rows) const;

    /**
     * The full per-benchmark report. Text and Markdown render the
     * workload-behaviour document; JSON emits the complete
     * characterization — per-workload top-down fractions (Figure 1
     * data), the method-coverage matrix (Figure 2 data), summaries,
     * and refrate timings.
     */
    std::string report(const Characterization &c) const;

    /**
     * One workload's measurement from a "run" request's one-workload
     * characterization. JSON emits the run payload (the four
     * top-down fractions, retired uops and checksum); text and
     * Markdown print the same values, plus the mean refrate time
     * when @p c holds timed repetitions.
     */
    std::string run(const Characterization &c) const;

    /** The end-of-run metrics table (see Engine::metricsSnapshot). */
    std::string
    metrics(const std::vector<obs::MetricSample> &samples) const;

  private:
    ReportFormat format_;
    runtime::Engine *engine_;
};

} // namespace alberta::core

#endif // ALBERTA_CORE_REPORT_H
