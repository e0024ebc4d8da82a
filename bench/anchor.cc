/**
 * @file anchor.cc
 * The CI perf anchors as data. Each entry of anchors() states one
 * campaign (suite, base config overlays, variants, axes) and the
 * columns of its table; one main runs any entry by name and one
 * renderer prints every table:
 *
 *   bench_anchor <anchor> [--quick] [--jobs N] [--json FILE] ...
 *
 * `bench_anchor <anchor> --quick --jobs 1 --json FILE` reproduces the
 * committed BENCH_<anchor>.json trajectory that tools/bench_gate.py
 * gates on. The fleet anchor is not a campaign: it is the tenant
 * manifest bench/fleet.manifest, replayed by `califorms fleet`.
 */

#include <functional>
#include <string_view>

#include "bench/common.hh"
#include "sim/stats_dump.hh"

using namespace califorms;
using bench::Options;

namespace
{

/** One grid axis, crossed in order: "levels" is the hierarchy-depth
 *  axis (CampaignSpec::crossLevels), any other key a registry key
 *  (CampaignSpec::crossKey). */
struct Axis
{
    std::string key;
    std::vector<std::string> values;
};

struct Anchor
{
    const char *name;     //!< the bench_anchor argument
    const char *campaign; //!< the report's "campaign" name
    const char *title;
    const char *paper;
    const char *footer;
    std::vector<std::string> suite; //!< benchmark names
    /** Registry key=value overlays on the base config; --set and
     *  --config on the command line win over them. */
    std::vector<std::string> base;
    std::vector<exp::Variant> variants;
    std::vector<Axis> axes;
    /**
     * Table columns, one row per (benchmark, variant), each cell the
     * seed mean: "benchmark"; "variant" (the uncrossed label); an
     * axis key; "cycles", "ipc", or "slowdown" against the first
     * variant of the same axis block; a statTable() row; or a
     * security rollup field under its report key.
     */
    std::vector<std::string> columns;
};

/** The layout-free variant: the generators and the attack replay take
 *  no layouts, so one non-randomized run per cell. */
exp::Variant
layoutFree(const char *label)
{
    return {label, InsertionPolicy::None, 0, 0, std::nullopt, false, {}};
}

const std::vector<Anchor> &
anchors()
{
    static const std::vector<Anchor> list = {
        {
            .name = "hierarchy",
            .campaign = "hierarchy_sweep",
            .title = "Hierarchy sweep - califorms across 1/2/3 cache "
                     "levels",
            .paper = "L1<->L2 conversions per Sec. 5.2; deeper levels "
                     "absorb miss cost",
            .footer = "the fill/spill codec runs at the L1 boundary "
                      "wherever it is (L2 at levels>=2,\nDRAM at "
                      "levels=1); deeper hierarchies trade DRAM "
                      "traffic for extra conversions\nas califormed "
                      "lines bounce between the L1 and the sentinel "
                      "levels.\n",
            .suite = {"mcf", "milc"},
            // The miss-queue path is part of the modelled machine;
            // conversion latencies stay at the paper's 0 cycles.
            .base = {"mem.wb_queue_entries=8"},
            .variants = {{"base", InsertionPolicy::None, 0, 0, false,
                          false, {}},
                         {"full/3 CFORM", InsertionPolicy::Full, 3, 0,
                          true, true, {}}},
            .axes = {{"levels", {"1", "2", "3"}}},
            .columns = {"benchmark", "levels", "variant", "cycles",
                        "slowdown", "califorms.fills",
                        "califorms.spills", "wbq.forcedDrains",
                        "dram.accesses"},
        },
        {
            .name = "workloads",
            .campaign = "workload_suite",
            .title = "Synthetic workload suite - generators across "
                     "1/2/3 cache levels",
            .paper = "beyond Sec. 8.2: zipf/stream/stack/ring/attack "
                     "access-pattern coverage",
            .footer = "zipf's hot set collapses into the upper levels "
                      "as depth grows; stream is\nbandwidth-bound at "
                      "every depth; stackchurn exercises the CFORM "
                      "set/unset\nhot path; attackmix is the only "
                      "workload that trips security bytes.\n",
            .suite = {"zipf", "stream", "stackchurn", "ring",
                      "attackmix"},
            .base = {},
            .variants = {layoutFree("base")},
            .axes = {{"levels", {"1", "2", "3"}}},
            .columns = {"benchmark", "levels", "cycles", "ipc",
                        "l1d.missRate", "dram.accesses",
                        "califorms.cformOps",
                        "califorms.securityFaults"},
        },
        {
            .name = "multicore",
            .campaign = "multicore_scaling",
            .title = "Multi-core scaling - synthetic workloads across "
                     "core counts and coherence",
            .paper = "beyond Sec. 8: private L1s + shared LLC with MSI "
                     "invalidation coherence",
            .footer = "core.count=1 reproduces the single-requester "
                      "machine exactly (coherence\ncounters stay zero, "
                      "msi == none); adding cores multiplies the "
                      "combined\nfootprint, and MSI charges the "
                      "write-shared lines with invalidations,\ndirty "
                      "recalls, and sentinel conversions under "
                      "surrender.\n",
            .suite = {"zipf", "stream", "stackchurn", "ring",
                      "attackmix"},
            .base = {},
            .variants = {layoutFree("base")},
            .axes = {{"core.count", {"1", "2", "4"}},
                     {"mem.coherence", {"none", "msi"}}},
            .columns = {"benchmark", "core.count", "mem.coherence",
                        "cycles", "ipc", "dram.accesses",
                        "coherence.invalidations",
                        "coherence.dirtyRecalls",
                        "coherence.convUnderInval"},
        },
        {
            .name = "memlp",
            .campaign = "memlevel_parallelism",
            .title = "Memory-level parallelism - MSHRs and banked DRAM "
                     "timing across the synthetic workloads",
            .paper = "beyond Sec. 8: non-blocking miss path vs the "
                     "blocking machine, row-buffer locality",
            .footer = "mshrs=0 banks=0 reproduces the legacy untimed "
                      "machine exactly; banks>0\nwith mshrs=0 is the "
                      "blocking machine (misses serialize on the "
                      "banked\ntimeline), and raising the MSHR depth "
                      "lets independent misses overlap -\nstall "
                      "cycles fall and cycle counts drop back toward "
                      "the untimed bound.\n",
            .suite = {"zipf", "stream", "stackchurn", "ring",
                      "attackmix"},
            // A 32-entry write-back queue exercises the indexed
            // victim-buffer path under the same traffic.
            .base = {"mem.wb_queue_entries=32"},
            .variants = {layoutFree("base")},
            .axes = {{"mem.mshr_entries", {"0", "4", "16"}},
                     {"mem.dram_banks", {"0", "8"}}},
            .columns = {"benchmark", "mem.mshr_entries",
                        "mem.dram_banks", "cycles", "ipc",
                        "mshr.stallCycles", "mshr.coalesced",
                        "dram.rowHits", "dram.rowConflicts",
                        "dram.bankConflictCycles"},
        },
        {
            .name = "repl",
            .campaign = "repl_policies",
            .title = "Replacement-policy laboratory - adversarial "
                     "microworkloads across the pluggable policies",
            .paper = "beyond Sec. 8: scan/thrash resistance and "
                     "califormed-victim selection per policy",
            .footer = "lru flushes its hot set on every scan episode "
                      "and misses the whole thrash\nloop; the rrip "
                      "pair (drrip, ship) ages the never-reused scan "
                      "lines out first,\nso their hot-set miss rates "
                      "collapse. the cformEvictions columns are "
                      "nonzero\nonly on mixed, whose hot objects carry "
                      "security bytes - a policy that\nvictimizes "
                      "califormed lines shows up directly in "
                      "repl.cformVictimRate.\n",
            .suite = {"thrash", "scan", "mixed"},
            .base = {},
            .variants = {layoutFree("base")},
            .axes = {{"levels", {"2", "3"}},
                     {"mem.repl_policy",
                      {"lru", "random", "dip", "drrip", "ship"}}},
            .columns = {"benchmark", "levels", "mem.repl_policy",
                        "cycles", "ipc", "l2.missRate", "l3.missRate",
                        "repl.l1d.cformEvictions",
                        "repl.l2.cformEvictions",
                        "repl.l3.cformEvictions",
                        "repl.cformVictimRate"},
        },
        {
            .name = "attacks",
            .campaign = "attack_scenarios",
            .title = "Red-team scenario laboratory - registered attack "
                     "PoCs vs victim insertion policies",
            .paper = "Sec. 7.3: byte-granular blacklisting turns heap "
                     "exploit primitives into detections",
            .footer = "on the uncaliformed baseline the spray, overflow "
                      "and stale-pointer primitives\nland silently "
                      "(timing finds no gap to attack on this victim). "
                      "under full/\nintelligent insertion the same "
                      "loops trip a security byte within a handful\nof "
                      "probes: successProbability collapses while "
                      "detections saturate, and\ndetectionLatencyCycles "
                      "records how few cycles each attacker life had. "
                      "the\nexceptions prove the paper's point - brop "
                      "still wins because these respawns\nreuse one "
                      "layout (attack.brop_rerandomize closes it), and "
                      "uaf outwaits the\ndefault quarantine "
                      "(heap.quarantine_fraction=1 closes that).\n",
            .suite = {"attack"},
            // Conversion latencies on so the timing side channel has
            // signal; extra trials per cell smooth the probabilities.
            .base = {"mem.fill_conv_latency=3", "mem.spill_conv_latency=5",
                     "attack.seeds=8"},
            // The baseline column is a genuinely unprotected heap: no
            // CFORMs, so no spans, guards or blacklisted quarantine.
            .variants = {layoutFree("none").withSet("heap.use_cform",
                                                    "false"),
                         {"full", InsertionPolicy::Full, 7, 0,
                          std::nullopt, true, {}},
                         {"intelligent", InsertionPolicy::Intelligent, 7,
                          0, std::nullopt, true, {}}},
            .axes = {{"attack.scenario", attackScenarioNames()}},
            .columns = {"attack.scenario", "variant",
                        "successProbability", "detections", "probes",
                        "crashes", "bytesTouched",
                        "detectionLatencyCycles"},
        },
    };
    return list;
}

/** One table column: renders the cell of (benchmark b, variant v). */
using Cell = std::function<std::string(const exp::CampaignResult &,
                                       std::size_t b, std::size_t v)>;

/** A numeric column: the seed mean of @p value, at @p precision. */
Cell
seedMean(std::function<double(const RunResult &)> value, int precision)
{
    return [value, precision](const exp::CampaignResult &result,
                              std::size_t b, std::size_t v) {
        double sum = 0;
        std::size_t n = 0;
        for (const exp::RunUnit &unit : result.units) {
            if (unit.benchIndex != b || unit.variantIndex != v)
                continue;
            sum += value(result.results[unit.index]);
            ++n;
        }
        return TextTable::num(sum / static_cast<double>(n), precision);
    };
}

/** The security rollup's counters, under their report keys. */
constexpr struct
{
    const char *key;
    std::uint64_t SecurityRunStats::*field;
} kSecurityFields[] = {
    {"trials", &SecurityRunStats::trials},
    {"successes", &SecurityRunStats::successes},
    {"detections", &SecurityRunStats::detections},
    {"probes", &SecurityRunStats::probes},
    {"bytesTouched", &SecurityRunStats::bytesTouched},
    {"crashes", &SecurityRunStats::crashes},
    {"detectionLatencyCycles", &SecurityRunStats::detectionLatencyCycles},
};

/** Resolve column @p name of @p anchor; an empty Cell if unknown. */
Cell
column(const Anchor &anchor, const std::string &name)
{
    const std::size_t block = anchor.variants.size();
    if (name == "benchmark")
        return [](const exp::CampaignResult &result, std::size_t b,
                  std::size_t) { return result.spec.suite[b]->name; };
    if (name == "variant")
        return [&anchor, block](const exp::CampaignResult &,
                                std::size_t, std::size_t v) {
            return anchor.variants[v % block].label;
        };
    if (name == "slowdown")
        return [block](const exp::CampaignResult &result, std::size_t b,
                       std::size_t v) {
            return TextTable::pct(result.meanCycles(b, v) /
                                      result.meanCycles(b, v - v % block) -
                                  1.0);
        };
    if (name == "levels")
        return [](const exp::CampaignResult &result, std::size_t,
                  std::size_t v) {
            return std::to_string(result.spec.variants[v].levels);
        };
    for (const Axis &axis : anchor.axes) {
        if (axis.key != name)
            continue;
        return [name](const exp::CampaignResult &result, std::size_t,
                      std::size_t v) {
            for (const auto &[key, value] : result.spec.variants[v].sets)
                if (key == name)
                    return value;
            return std::string("?");
        };
    }
    if (name == "cycles")
        return seedMean(
            [](const RunResult &r) { return static_cast<double>(r.cycles); },
            0);
    if (name == "ipc")
        return seedMean(
            [](const RunResult &r) {
                return r.cycles ? static_cast<double>(r.instructions) /
                                      static_cast<double>(r.cycles)
                                : 0.0;
            },
            3);
    for (const StatDef &stat : statTable())
        if (name == stat.name)
            return seedMean(
                [&stat](const RunResult &r) { return stat.value(r.mem); },
                stat.derive ? 4 : 0);
    if (name == "successProbability")
        return seedMean(
            [](const RunResult &r) {
                return r.security.trials
                           ? static_cast<double>(r.security.successes) /
                                 static_cast<double>(r.security.trials)
                           : 0.0;
            },
            4);
    for (const auto &field : kSecurityFields)
        if (name == field.key)
            return seedMean(
                [f = field.field](const RunResult &r) {
                    return static_cast<double>(r.security.*f);
                },
                0);
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string names;
    const Anchor *anchor = nullptr;
    for (const Anchor &a : anchors()) {
        names += (names.empty() ? "" : "|") + std::string(a.name);
        if (argc > 1 && a.name == std::string_view(argv[1]))
            anchor = &a;
    }
    if (!anchor) {
        if (argc > 1 && argv[1][0] != '-') {
            std::fprintf(stderr, "%s: unknown anchor '%s' (anchors: %s)\n",
                         argv[0], argv[1], names.c_str());
            return 2;
        }
        // Flags only: --help prints the usage, junk is diagnosed.
        Options::parse(argc, argv, (" <" + names + ">").c_str());
        std::fprintf(stderr, "%s: missing anchor name (anchors: %s)\n",
                     argv[0], names.c_str());
        return 2;
    }

    std::vector<Cell> cells;
    for (const std::string &name : anchor->columns) {
        cells.push_back(column(*anchor, name));
        if (!cells.back()) {
            std::fprintf(stderr, "%s: anchor '%s' has no column '%s'\n",
                         argv[0], anchor->name, name.c_str());
            return 1;
        }
    }

    std::vector<char *> args = {argv[0]};
    args.insert(args.end(), argv + 2, argv + argc);
    const Options opt =
        Options::parse(static_cast<int>(args.size()), args.data(),
                       (std::string(" ") + anchor->name).c_str());
    bench::banner(anchor->title, anchor->paper, opt);

    exp::CampaignSpec spec;
    spec.name = anchor->campaign;
    spec.variants = anchor->variants;
    try {
        config::Config base;
        for (const std::string &pair : anchor->base)
            if (const auto error = base.setPair(pair))
                throw std::invalid_argument(*error);
        base.applyTo(spec.base);
        for (const std::string &bench : anchor->suite)
            spec.suite.push_back(&findBenchmark(bench));
        for (const Axis &axis : anchor->axes) {
            if (axis.key != "levels") {
                spec.variants = exp::CampaignSpec::crossKey(
                    spec.variants, axis.key, axis.values);
                continue;
            }
            std::vector<unsigned> levels;
            for (const std::string &value : axis.values)
                levels.push_back(static_cast<unsigned>(std::stoul(value)));
            spec.variants =
                exp::CampaignSpec::crossLevels(spec.variants, levels);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: anchor '%s': %s\n", argv[0],
                     anchor->name, e.what());
        return 1;
    }

    const exp::CampaignResult result = bench::runCampaign(opt, spec);

    TextTable table(anchor->columns);
    for (std::size_t b = 0; b < spec.suite.size(); ++b) {
        for (std::size_t v = 0; v < spec.variants.size(); ++v) {
            std::vector<std::string> row;
            for (const Cell &cell : cells)
                row.push_back(cell(result, b, v));
            table.addRow(std::move(row));
        }
    }
    std::printf("%s\n%s", table.render().c_str(), anchor->footer);
    return 0;
}
