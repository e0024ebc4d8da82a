/**
 * @file cli_common.cc
 * Shared argument parsing helpers for the califorms CLI subcommands.
 * Knob parsing itself lives in src/config (the ParamRegistry and
 * config::parseCliArg); only the truly CLI-local helpers remain here.
 */

#include "cli.hh"

#include <cstdio>
#include <cstdlib>

namespace califorms::cli
{

std::optional<InsertionPolicy>
parsePolicy(const std::string &name)
{
    return parsePolicyName(name);
}

const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "califorms: %s requires a value\n", argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

bool
setOrReport(config::Config &cfg, const char *prog,
            const std::string &flag, const std::string &key,
            const std::string &text)
{
    if (const auto error = cfg.set(key, text)) {
        std::fprintf(stderr, "%s: %s: %s\n", prog, flag.c_str(),
                     error->c_str());
        return false;
    }
    return true;
}

std::optional<std::uint64_t>
parseCount(const char *prog, const char *flag, const std::string &text,
           std::uint64_t min, std::uint64_t max)
{
    const auto v = parseU64(text);
    if (!v || *v < min || *v > max) {
        std::fprintf(stderr,
                     "%s: %s expects an integer in [%llu, %llu], got "
                     "'%s'\n",
                     prog, flag, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), text.c_str());
        return std::nullopt;
    }
    return v;
}

} // namespace califorms::cli
