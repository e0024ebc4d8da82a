/**
 * @file main.cc
 * perfbench: host cost of the Califorms simulator, per workload.
 *
 *   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *             [--scratch DIR] [--commit TEXT] [--source TEXT]
 *
 * --trace 0 times the public entry point (runFleet / runBenchmark)
 * with nothing inside it timed and prints the end-to-end metrics;
 * --trace 1 adds the traced decomposed replay and prints the
 * per-layer ledger. Either way every timed run's simulated outputs
 * are checked against the decomposed replay of the same streams (and,
 * at the default seed, against the digests recorded in the benchmark).
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics. See README.md for the workloads and metric map.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench.hh"

using namespace perfbench;

namespace
{

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimisedBuild = true;
#else
constexpr bool kOptimisedBuild = false;
#endif

/** Set-ups timed per run (setup_s is their median). */
constexpr std::size_t kSetups = 31;
/** Entry-point calls per run at least, whatever --seconds says. */
constexpr std::size_t kMinReps = 3;
/** Report renders timed per traced run. */
constexpr int kRenders = 5;

struct Args
{
    std::string workload;
    std::uint64_t seed = defaultSeed();
    double seconds = 10;
    bool trace = false;
    std::string scratch = ".";
    std::string commit = "unknown";
    std::string source = "unknown";
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] [--scratch DIR] "
                 "[--commit TEXT] [--source TEXT]\n",
                 error.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload")
                args.workload = value;
            else if (key == "--seed")
                args.seed = std::stoull(value);
            else if (key == "--seconds")
                args.seconds = std::stod(value);
            else if (key == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (key == "--scratch")
                args.scratch = value;
            else if (key == "--commit")
                args.commit = value;
            else if (key == "--source")
                args.source = value;
            else
                usage("unknown option " + key);
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + key);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!(args.seconds > 0))
        usage("--seconds must be positive");
    return args;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string brand(reinterpret_cast<const char *>(regs),
                          sizeof(regs));
        brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
        brand.erase(0, brand.find_first_not_of(' '));
        return brand;
    }
#endif
    return "unknown";
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Pins the calling thread, and the threads it starts, to @p width of
 * the CPUs it may run on, moving one CPU on at each next(), round
 * robin. A shared host slows each physical core by up to 2x for
 * seconds to minutes at a time, independently of the others; spreading
 * a workload's calls over the CPUs keeps one slow core from setting a
 * whole run's figure. Restores the original mask when destroyed.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(unsigned width) : width_(width)
    {
        if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
    }
    ~CpuRotation()
    {
        if (moved_)
            sched_setaffinity(0, sizeof(original_), &original_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void next()
    {
        if (cpus_.size() <= width_)
            return;
        cpu_set_t some;
        CPU_ZERO(&some);
        for (unsigned i = 0; i < width_; ++i)
            CPU_SET(cpus_[(turn_ + i) % cpus_.size()], &some);
        ++turn_;
        moved_ = sched_setaffinity(0, sizeof(some), &some) == 0 || moved_;
    }

  private:
    unsigned width_;
    cpu_set_t original_{};
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
    bool moved_ = false;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
secondsSince(std::chrono::steady_clock::time_point from)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         from)
        .count();
}

/** Peak resident set of this program in MB. Linux's VmHWM starts at
 *  the exec; getrusage's ru_maxrss would also count the launching
 *  process's resident set at fork time, which exec carries over. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // kB
}

using Metric = std::tuple<std::string, double, std::string>;

std::vector<Metric>
layerMetrics(const Workload &w, const Ledger &l,
             const std::vector<SetupTimes> &setups, double untraced_ns,
             const std::vector<double> &solo_ns, double plain_ns,
             double render_ns)
{
    const MemSysStats &s = l.stats;
    const double ops = static_cast<double>(l.ops);
    const auto served = [&l](Served level) {
        const auto i = static_cast<unsigned>(level);
        return ratio(l.servedNs[i], static_cast<double>(l.served[i]));
    };
    // A level difference is defined only when both levels served any.
    const auto walk = [&l, &served](Served from, Served to) {
        const bool both = l.served[static_cast<unsigned>(from)] &&
                          l.served[static_cast<unsigned>(to)];
        return both ? served(to) - served(from) : 0.0;
    };
    const auto hitRatio = [](const califorms::CacheStats &c) {
        return ratio(static_cast<double>(c.hits),
                     static_cast<double>(c.hits + c.misses));
    };
    double solo_sum = 0, solo_max = 0;
    for (double ns : solo_ns) {
        solo_sum += ns;
        solo_max = std::max(solo_max, ns);
    }
    std::vector<double> config_ms, machine_ms, reader_ms;
    for (const SetupTimes &t : setups) {
        config_ms.push_back(t.configNs / 1e6);
        machine_ms.push_back(t.machineNs / 1e6);
        reader_ms.push_back(t.readerNs / 1e6);
    }
    const double evictions = static_cast<double>(
        s.l1.evictions + s.l2.evictions + s.l3.evictions);
    const double cform_evictions = static_cast<double>(
        s.l1.cformEvictions + s.l2.cformEvictions + s.l3.cformEvictions);
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

    return {
        {"workload.fill_ns_per_op", ratio(l.readerNs, ops), "ns"},
        {"fleet.kernel_overhead_ns_per_op",
         ratio(solo_sum - plain_ns, ops), "ns"},
        {"sim.core.retire_ns_per_op", ratio(l.retireNs, ops), "ns"},
        {"sim.l1.hit_ns", served(Served::L1), "ns"},
        {"sim.cform_ns", ratio(l.cformNs, u(l.cforms)), "ns"},
        {"sim.l1.hit_ratio", hitRatio(s.l1), "ratio"},
        {"sim.l2.served_ns", served(Served::L2), "ns"},
        {"sim.llc.served_ns", served(Served::Llc), "ns"},
        {"sim.dram.served_ns", served(Served::Dram), "ns"},
        {"sim.l2.walk_ns", walk(Served::L1, Served::L2), "ns"},
        {"sim.llc.walk_ns", walk(Served::L2, Served::Llc), "ns"},
        {"sim.dram.path_ns", walk(Served::Llc, Served::Dram), "ns"},
        {"sim.l2.hit_ratio", hitRatio(s.l2), "ratio"},
        {"sim.llc.hit_ratio", hitRatio(s.l3), "ratio"},
        {"sim.dram.accesses_per_op", ratio(u(s.dramAccesses), ops),
         "1/op"},
        {"sim.coherence.invalidations_per_op",
         ratio(u(s.invalidationsSent), ops), "1/op"},
        {"sim.coherence.dirty_recalls_per_op",
         ratio(u(s.dirtyRecalls), ops), "1/op"},
        {"sim.mshr.coalesce_ratio",
         ratio(u(s.mshrCoalesced), u(s.mshrAllocations + s.mshrCoalesced)),
         "ratio"},
        {"sim.mshr.stall_cycles_per_op", ratio(u(s.mshrStallCycles), ops),
         "cycles/op"},
        {"sim.dram.row_hit_ratio",
         ratio(u(s.dramRowHits),
               u(s.dramRowHits + s.dramRowMisses + s.dramRowConflicts)),
         "ratio"},
        {"sim.wbq.hit_ratio", ratio(u(s.wbHits), u(s.l1.misses)), "ratio"},
        {"sim.wbq.forced_drain_ratio",
         ratio(u(s.wbForcedDrains), u(s.wbEnqueued)), "ratio"},
        {"sim.repl.cform_eviction_share",
         ratio(cform_evictions, evictions), "ratio"},
        {"sim.mainmem.read_ns", ratio(l.mainReadNs, u(l.mainCalls)), "ns"},
        {"sim.mainmem.write_ns", ratio(l.mainWriteNs, u(l.mainCalls)),
         "ns"},
        {"sim.mainmem.lines", u(l.backedLines), "count"},
        {"core.codec.fill_ns", ratio(l.codecFillNs, u(l.codecCalls)), "ns"},
        {"core.codec.spill_ns", ratio(l.codecSpillNs, u(l.codecCalls)),
         "ns"},
        {"core.codec.conversions_per_op", ratio(u(s.fills + s.spills), ops),
         "1/op"},
        {"os.faults_per_op", ratio(u(s.securityFaults), ops), "1/op"},
        {"fleet.efficiency", ratio(solo_sum, w.jobs * untraced_ns),
         "ratio"},
        {"fleet.critical_path_share", ratio(solo_max, untraced_ns),
         "ratio"},
        {"setup.config_ms", median(config_ms), "ms"},
        {"setup.machine_ms", median(machine_ms), "ms"},
        {"setup.reader_ms", median(reader_ms), "ms"},
        {"report.render_ms", render_ns / 1e6, "ms"},
        {"bench.trace_overhead", ratio(l.wallNs, solo_sum), "ratio"},
        {"bench.unattributed_ns_per_op",
         ratio(l.wallNs - l.attributedNs(), ops), "ns"},
    };
}

int
run(const Args &args)
{
    if (!kOptimisedBuild) {
        std::fprintf(stderr, "perfbench: refusing to report from a "
                             "non-optimised build (need -O and NDEBUG)\n");
        return 3;
    }
    std::printf("host: cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s "
                "commit=%s source=%s\n",
                cpuModel().c_str(), std::thread::hardware_concurrency(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                args.commit.c_str(), args.source.c_str());

    const Workload w = makeWorkload(args.workload, args.seed, 1.0,
                                    args.scratch);
    prepareInputs(w);

    // Set-ups come first, in a fresh process, as a user's run pays them;
    // each on the next CPU.
    std::vector<SetupTimes> setups;
    {
        CpuRotation rotation(1);
        for (std::size_t i = 0; i < kSetups; ++i) {
            rotation.next();
            setups.push_back(timeSetup(w));
        }
    }

    // Reference digests: the decomposed replay of every stream, traced
    // when the ledger is asked for.
    Ledger ledger;
    std::vector<StreamDigest> reference;
    std::vector<bool> bad;
    for (const Stream &stream : w.streams) {
        try {
            reference.push_back(
                replayDecomposed(stream, args.trace ? &ledger : nullptr));
            bad.push_back(false);
        } catch (const std::exception &e) {
            std::printf("stream %s: decomposed replay threw: %s\n",
                        stream.id.c_str(), e.what());
            StreamDigest missing;
            missing.id = stream.id;
            missing.ops = stream.ops * stream.config.machine.core.count;
            reference.push_back(missing);
            bad.push_back(true);
        }
    }
    if (args.seed == defaultSeed()) {
        for (std::size_t i = 0; i < reference.size(); ++i) {
            const auto &recorded = recordedDigests();
            const auto it = std::find_if(
                recorded.begin(), recorded.end(), [&](const auto &r) {
                    return w.name == r.workload &&
                           reference[i].id == r.stream;
                });
            const std::uint64_t hash = reference[i].hash();
            if (it == recorded.end() || it->hash != hash) {
                std::printf("stream %s: digest %016llx differs from the "
                            "recorded default-seed digest\n",
                            reference[i].id.c_str(),
                            static_cast<unsigned long long>(hash));
                bad[i] = true;
            }
        }
    }
    std::uint64_t ref_ops = 0;
    for (const StreamDigest &d : reference)
        ref_ops += d.ops;

    // The timed entry-point calls, each on the next w.jobs CPUs; a
    // traced run keeps half its time for the solo and plain-loop
    // comparisons.
    const double rep_seconds = args.trace ? args.seconds / 2 : args.seconds;
    std::vector<double> ns_per_op, walls;
    double timed_ns = 0, timed_ops = 0;
    std::uint64_t attempted = 0, failed = 0;
    EntryRun last;
    {
        CpuRotation rotation(w.jobs);
        const auto reps_start = std::chrono::steady_clock::now();
        for (std::size_t rep = 0;
             rep < kMinReps || secondsSince(reps_start) < rep_seconds; ++rep) {
            rotation.next();
            attempted += ref_ops;
            try {
                EntryRun r = runEntry(w, ref_ops);
                ns_per_op.push_back(r.wallNs / static_cast<double>(r.ops));
                walls.push_back(r.wallNs);
                timed_ns += r.wallNs;
                timed_ops += static_cast<double>(r.ops);
                if (r.digests.size() != reference.size()) {
                    failed += ref_ops;
                } else {
                    for (std::size_t i = 0; i < reference.size(); ++i)
                        if (bad[i] || !(r.digests[i] == reference[i]))
                            failed += reference[i].ops;
                }
                last = std::move(r);
            } catch (const std::exception &e) {
                std::printf("entry point threw: %s\n", e.what());
                failed += ref_ops;
            }
        }
    }

    std::vector<double> setup_s;
    for (const SetupTimes &t : setups)
        setup_s.push_back(t.total() / 1e9);
    std::printf("workload=%s seed=%llu trace=%d reps=%zu streams=%zu "
                "ops/rep=%llu jobs=%u\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, ns_per_op.size(), w.streams.size(),
                static_cast<unsigned long long>(ref_ops), w.jobs);
    if (!ns_per_op.empty()) {
        std::vector<double> sorted = ns_per_op;
        std::sort(sorted.begin(), sorted.end());
        std::printf("  ns/op over reps: min %.6g  median %.6g  max %.6g\n",
                    sorted.front(), median(sorted), sorted.back());
        std::printf("  ns/op per call, in call order:");
        for (double v : ns_per_op)
            std::printf(" %.6g", v);
        std::printf("\n");
    }
    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"ns_per_op", ratio(timed_ns, timed_ops), "ns"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        const double untraced_ns = median(walls);
        std::vector<double> solo_ns = {untraced_ns};
        std::vector<double> plain_ns;
        const auto extra_start = std::chrono::steady_clock::now();
        if (w.streams.size() > 1) {
            std::vector<std::vector<double>> solo_reps;
            do {
                solo_reps.push_back(soloTenantNs(w));
            } while (secondsSince(extra_start) < args.seconds / 4);
            solo_ns.clear();
            for (std::size_t t = 0; t < w.streams.size(); ++t) {
                std::vector<double> tenant;
                for (const auto &rep : solo_reps)
                    tenant.push_back(rep[t]);
                solo_ns.push_back(median(tenant));
            }
        }
        const auto plain_start = std::chrono::steady_clock::now();
        do {
            const auto t0 = std::chrono::steady_clock::now();
            for (const Stream &stream : w.streams)
                replayPlain(stream);
            plain_ns.push_back(secondsSince(t0) * 1e9);
        } while (secondsSince(plain_start) < args.seconds / 4);
        std::vector<double> renders;
        if (last.ops)
            for (int i = 0; i < kRenders; ++i)
                renders.push_back(timeReportRender(w, last));
        metrics = layerMetrics(w, ledger, setups, untraced_ns, solo_ns,
                               median(plain_ns), median(renders));
    }
    const double failed_frac =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));

    for (const auto &[name, value, unit] : metrics)
        std::printf("  %-36s %14.6g %s\n", name.c_str(), value,
                    unit.c_str());
    std::printf("  %-36s %14.6g fraction (%llu of %llu ops)\n",
                "failed_frac", failed_frac,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto &[name, value, unit] = metrics[i];
        char number[40];
        std::snprintf(number, sizeof(number), "%.17g",
                      std::isfinite(value) ? value : 0.0);
        json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + number +
                ", \"unit\": \"" + unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
#if defined(__GLIBC__)
    // Pin glibc's mmap threshold at its initial value: every machine then
    // maps and unmaps its cache arrays the way a fresh process does,
    // instead of set-up time and peak RSS depending on whether earlier
    // frees happened to leave the heap holding that memory.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
