/**
 * @file common.hh
 * Shared helpers for the figure/table reproduction harnesses: CLI
 * parsing (--scale, --seeds, --jobs, --json/--csv, plus the full
 * registry surface: --set key=value, --config FILE, and the legacy
 * alias flags via config::parseCliArg), the campaign-engine
 * glue, and uniform headers so the bench outputs are easy to diff
 * against the expectations documented in EXPERIMENTS.md at the
 * repository root (harness inventory, option semantics, output format).
 *
 * Every grid-shaped harness expresses its grid as an exp::CampaignSpec
 * and executes it through runCampaign() below, which honours --jobs
 * (parallel execution with submission-order result collection, so
 * stdout is bit-identical at any job count) and records the optional
 * JSON/CSV reports.
 */

#ifndef CALIFORMS_BENCH_COMMON_HH
#define CALIFORMS_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "config/config.hh"
#include "exp/campaign.hh"
#include "exp/report.hh"
#include "security/scenarios.hh"
#include "sim/params.hh"
#include "util/parse.hh"
#include "util/table.hh"
#include "workload/runner.hh"
#include "workload/synth.hh"

namespace califorms::bench
{

/** Common command line options. */
struct Options
{
    double scale = 0.5;   //!< workload iteration multiplier
    unsigned seeds = 2;   //!< randomized binaries per configuration
    unsigned jobs = 1;    //!< campaign worker threads; 0 = all cores
    bool quick = false;   //!< --quick: one seed, small scale
    std::string jsonPath; //!< --json FILE: machine-readable report
    std::string csvPath;  //!< --csv FILE: one row per run

    /**
     * Registry-backed knob overrides, collected from --set key=value,
     * --config FILE, and the legacy alias flags (--levels, --l2-kb,
     * --llc-kb, --wb-queue, ...) and applied to the campaign base
     * config — so every harness can be re-run on any machine variant
     * without per-harness plumbing. No private hierarchy parser: the
     * config ParamRegistry validates every value.
     */
    config::Config cfg;

    /**
     * Parse the harness command line. An unknown argument, a missing
     * value or a malformed number is a usage error: diagnosed on
     * stderr, exit 2. @p operands follows the program name in the
     * --help synopsis.
     */
    static Options
    parse(int argc, char **argv, const char *operands = "")
    {
        Options opt;
        const auto fail = [argv](const std::string &message) {
            std::fprintf(stderr, "%s: %s\n", argv[0], message.c_str());
            std::exit(2);
        };
        const auto value = [&](int &i) {
            if (i + 1 >= argc)
                fail(std::string(argv[i]) + " requires a value");
            return std::string(argv[++i]);
        };
        // --seeds and --jobs take an integer in [min, 4096].
        const auto count = [&](int &i, std::uint64_t min) {
            const std::string flag = argv[i];
            const std::string text = value(i);
            const auto v = parseU64(text);
            if (!v || *v < min || *v > 4096)
                fail(flag + " expects an integer in [" +
                     std::to_string(min) + ", 4096], got '" + text + "'");
            return static_cast<unsigned>(*v);
        };
        for (int i = 1; i < argc; ++i) {
            switch (config::parseCliArg(opt.cfg, argv[i], argc, argv,
                                        i, argv[0])) {
            case config::CliArg::Consumed:
                continue;
            case config::CliArg::Error:
                std::exit(2);
            case config::CliArg::NotMine:
                break;
            }
            const std::string arg = argv[i];
            if (arg == "--quick") {
                opt.quick = true;
                opt.scale = 0.1;
                opt.seeds = 1;
            } else if (arg == "--scale") {
                const std::string text = value(i);
                const auto v = parseDouble(text);
                if (!v || *v <= 0)
                    fail("--scale expects a positive number, got '" +
                         text + "'");
                opt.scale = *v;
            } else if (arg == "--seeds") {
                opt.seeds = count(i, 1);
            } else if (arg == "--jobs") {
                opt.jobs = count(i, 0);
            } else if (arg == "--json") {
                opt.jsonPath = value(i);
            } else if (arg == "--csv") {
                opt.csvPath = value(i);
            } else if (arg == "--help") {
                std::printf("usage: %s%s [--scale S] [--seeds N] "
                            "[--jobs N] [--quick]\n"
                            "          [--json FILE] [--csv FILE]\n"
                            "\n%s\n",
                            argv[0], operands,
                            config::cliUsage().c_str());
                std::exit(0);
            } else {
                fail("unknown argument '" + arg + "'");
            }
        }
        return opt;
    }

    /** The conventional layout-seed list (1000, 1001, ...). */
    std::vector<std::uint64_t>
    layoutSeeds() const
    {
        return exp::CampaignSpec::seedRange(seeds);
    }
};

/** Print a uniform experiment banner. Deliberately omits --jobs: the
 *  job count must never change a harness's output. */
inline void
banner(const char *experiment, const char *paper_summary,
       const Options &opt)
{
    std::printf("================================================="
                "=====================\n");
    std::printf("%s\n", experiment);
    std::printf("paper reference: %s\n", paper_summary);
    std::printf("scale=%.2f seeds=%u\n", opt.scale, opt.seeds);
    std::printf("================================================="
                "=====================\n");
}

/** Benchmarks included in the software evaluation (Section 8.2). */
inline std::vector<const SpecBenchmark *>
softwareEvalSuite()
{
    std::vector<const SpecBenchmark *> out;
    for (const auto &b : spec2006Suite())
        if (b.inSoftwareEval)
            out.push_back(&b);
    return out;
}

/** The full 19-benchmark suite (Figures 4 and 10). */
inline std::vector<const SpecBenchmark *>
fullSuite()
{
    std::vector<const SpecBenchmark *> out;
    for (const auto &b : spec2006Suite())
        out.push_back(&b);
    return out;
}

/**
 * Execute @p spec with the harness options applied: scale and layout
 * seeds come from @p opt, execution uses --jobs workers, and the
 * JSON/CSV reports are written if requested (destinations validated
 * before any simulation time is spent). Report notes go to stderr so
 * stdout stays diffable across job counts and report paths. Exits with
 * a message rather than std::terminate on report errors — the bench
 * mains have no try/catch of their own.
 */
inline exp::CampaignResult
runCampaign(const Options &opt, exp::CampaignSpec spec)
{
    // The harness grid owns the layout axis (policy/span variants,
    // the --seeds list): a base-level set of those keys would be
    // silently overwritten during expand(), so reject it loudly.
    // Likewise workload.* keys when no synthetic workload is in the
    // suite to consume them.
    bool any_synth = false;
    bool any_attack = false;
    for (const SpecBenchmark *b : spec.suite) {
        any_synth = any_synth || isSynthWorkload(b->name);
        any_attack = any_attack || isAttackBenchmark(b->name);
    }
    for (const auto &[key, value] : opt.cfg.entries()) {
        if (!any_attack && key.rfind("attack.", 0) == 0) {
            std::fprintf(stderr,
                         "%s has no effect here (no attack replay "
                         "benchmark in this harness's suite consumes "
                         "attack.* knobs)\n",
                         key.c_str());
            std::exit(2);
        }
        if (!any_synth && key.rfind("workload.", 0) == 0) {
            std::fprintf(stderr,
                         "%s has no effect here (no synthetic "
                         "workload in this harness's suite consumes "
                         "workload.* knobs)\n",
                         key.c_str());
            std::exit(2);
        }
        if (key.rfind("fleet.", 0) == 0) {
            std::fprintf(stderr,
                         "%s has no effect here (only the fleet "
                         "engine consumes fleet.* knobs)\n",
                         key.c_str());
            std::exit(2);
        }
        if (exp::gridOwnedKey(key)) {
            std::fprintf(stderr,
                         "%s is owned by this harness's grid and "
                         "would be silently overridden; it is not a "
                         "base config knob here\n",
                         key.c_str());
            std::exit(2);
        }
    }
    spec.base.scale = opt.scale;
    spec.layoutSeeds = opt.layoutSeeds();
    // Registry overrides land after the harness's own base tweaks, so
    // --set / --config / alias flags win over per-harness defaults.
    opt.cfg.applyTo(spec.base);
    try {
        return exp::runCampaignWithReports(spec, opt.jobs,
                                           opt.jsonPath, opt.csvPath);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

} // namespace califorms::bench

#endif // CALIFORMS_BENCH_COMMON_HH
