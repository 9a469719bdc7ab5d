/**
 * @file
 * Shared command-line flag parsing for the suite's binaries.
 *
 * `alberta_cli` grew an ad-hoc flag loop; `alberta_serve` needs the
 * same flags (jobs, cache dir, trace) plus its own. ArgParser is that
 * loop extracted: declarative flag registration, value validation
 * through the same `parsePositiveInt` every numeric argument already
 * used, consistent `--help` output, and FatalError diagnostics that
 * both binaries render identically ("<prog>: fatal: ...").
 *
 * Flags may appear before or after positional arguments (the CLI's
 * historical behavior); everything that is not a registered flag is
 * returned as a positional. Registration order is help order.
 */
#ifndef ALBERTA_SUPPORT_ARGPARSE_H
#define ALBERTA_SUPPORT_ARGPARSE_H

#include <functional>
#include <string>
#include <vector>

namespace alberta::support {

/** Declarative flag parser (see file comment). */
class ArgParser
{
  public:
    /**
     * @param program  binary name used in help output
     * @param usageTail rendered after the flags in help, e.g. the
     *                  subcommand list
     */
    explicit ArgParser(std::string program,
                       std::string usageTail = "");

    /** Boolean flag (`--metrics`): presence sets @p out true. */
    ArgParser &flag(const std::string &name, const std::string &help,
                    bool *out);

    /**
     * String-valued flag (`--trace FILE`). @p seen, when given, is
     * set when the flag appears — callers that must distinguish an
     * explicit value from a default (e.g. `--cache-dir`) use it.
     */
    ArgParser &option(const std::string &name,
                      const std::string &valueName,
                      const std::string &help, std::string *out,
                      bool *seen = nullptr);

    /**
     * Positive-integer flag (`--jobs N`), validated through
     * parsePositiveInt against [1, @p max] — malformed or
     * out-of-range values are fatal, naming the flag.
     */
    ArgParser &positiveInt(const std::string &name,
                           const std::string &valueName,
                           const std::string &help, int *out,
                           long long max = 1024);

    /**
     * Custom-validated flag (`--format {text,md,json}`): @p apply
     * receives the raw value and may raise FatalError.
     */
    ArgParser &custom(const std::string &name,
                      const std::string &valueName,
                      const std::string &help,
                      std::function<void(const std::string &)> apply);

    /**
     * Parse argv. Registered flags are applied in command-line
     * order; every other argument is returned as a positional, in
     * order. `--help`/`-h` sets helpRequested() and stops parsing.
     * Raises FatalError on an unknown `--flag` or a missing value.
     */
    std::vector<std::string> parse(int argc, char **argv);

    /** True when parse() saw `--help` or `-h`. */
    bool helpRequested() const { return helpRequested_; }

    /** The formatted flag table plus the usage tail. */
    std::string help() const;

  private:
    struct Spec
    {
        std::string name;      //!< e.g. "--jobs"
        std::string valueName; //!< "" for boolean flags
        std::string help;
        std::function<void(const std::string &)> apply;
        bool takesValue = false;
    };

    const Spec *findSpec(const std::string &name) const;

    std::string program_;
    std::string usageTail_;
    std::vector<Spec> specs_;
    bool helpRequested_ = false;
};

} // namespace alberta::support

#endif // ALBERTA_SUPPORT_ARGPARSE_H
