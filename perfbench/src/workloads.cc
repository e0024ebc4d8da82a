#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "bench.hh"
#include "config/config.hh"
#include "exp/report.hh"
#include "fleet/report.hh"
#include "workload/kernels.hh"
#include "workload/synth.hh"

namespace perfbench
{

using namespace califorms;

namespace
{

double
wallNs(std::chrono::steady_clock::time_point from,
       std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::nano>(to - from).count();
}

std::uint64_t
scaled(std::uint64_t ops, double scale)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(static_cast<double>(ops) * scale)));
}

RunConfig
configFrom(const std::vector<std::pair<std::string, std::string>> &sets)
{
    config::Config config;
    for (const auto &[key, value] : sets)
        if (const auto error = config.set(key, value))
            throw std::invalid_argument(*error);
    return config.makeRunConfig();
}

fleet::TenantSpec
parseTenant(const std::string &line)
{
    fleet::TenantSpec tenant;
    if (const auto error = fleet::parseTenantSpec(line, tenant))
        throw std::invalid_argument(*error);
    return tenant;
}

/** A runFleet workload: @p lines are tenant manifest lines over a base
 *  with @p sets, each tenant replaying @p duration_ops ops. */
Workload
fleetWorkload(const std::string &name, std::uint64_t seed,
              std::vector<std::string> lines,
              std::vector<std::pair<std::string, std::string>> sets,
              std::uint64_t duration_ops, unsigned jobs)
{
    Workload w;
    w.name = name;
    w.jobs = jobs;
    w.tenantLines = std::move(lines);
    w.baseSets = std::move(sets);
    w.baseSets.emplace_back("workload.seed", std::to_string(seed));
    w.base = configFrom(w.baseSets);
    w.fleet.base = w.base;
    w.fleet.durationOps = duration_ops;
    for (const std::string &line : w.tenantLines)
        w.fleet.tenants.push_back(parseTenant(line));
    for (std::size_t i = 0; i < w.fleet.tenants.size(); ++i) {
        const fleet::TenantSpec &tenant = w.fleet.tenants[i];
        Stream s;
        s.id = tenant.id;
        s.config = fleet::resolveTenantConfig(w.fleet, i);
        s.generator = tenant.workload;
        s.tracePath = tenant.tracePath;
        s.ops = duration_ops;
        s.budget = tenant.workload.empty() ? duration_ops : 0;
        s.batchOps = w.base.fleet.batchOps;
        s.hasChecksum = true;
        w.streams.push_back(std::move(s));
    }
    return w;
}

/** A runBenchmark workload on synthetic generator @p generator. */
Workload
benchmarkWorkload(const std::string &name, std::uint64_t seed,
                  const std::string &generator,
                  std::vector<std::pair<std::string, std::string>> sets)
{
    Workload w;
    w.name = name;
    w.bench = &findBenchmark(generator);
    w.baseSets = std::move(sets);
    w.baseSets.emplace_back("workload.seed", std::to_string(seed));
    w.base = configFrom(w.baseSets);
    Stream s;
    s.id = generator;
    s.config = w.base;
    s.generator = generator;
    s.ops = w.base.synth.ops; // runBenchmark runs at scale 1
    w.streams.push_back(std::move(s));
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "zipf-deep", "stackchurn-l1", "ring-msi4", "fleet-mix"};
    return names;
}

std::uint64_t
defaultSeed()
{
    return SynthParams{}.seed;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             double ops_scale, const std::string &scratch_dir)
{
    // zipf-deep: 64 MB footprint (32x the 2 MB LLC); most ops miss the
    // L1 and reach DRAM, so the shared levels and the backing store
    // dominate and the codec is idle.
    if (name == "zipf-deep")
        return fleetWorkload(name, seed, {"zipf workload=zipf"},
                             {{"workload.footprint_kb", "65536"}},
                             scaled(1000000, ops_scale), 1);
    // stackchurn-l1: nearly every access hits the L1 and half the ops
    // are CFORMs: the L1, CFORM, core model, generator and batch loop.
    if (name == "stackchurn-l1")
        return fleetWorkload(name, seed,
                             {"stackchurn workload=stackchurn"}, {},
                             scaled(4000000, ops_scale), 1);
    // ring-msi4: four coherent cores through runBenchmark and the
    // round-robin interleaver; invalidations, dirty recalls and
    // califormed lines encoded under invalidation.
    if (name == "ring-msi4")
        return benchmarkWorkload(
            name, seed, "ring",
            {{"core.count", "4"},
             {"mem.coherence", "msi"},
             {"workload.protect_lines", "16"},
             {"workload.ops", std::to_string(scaled(500000, ops_scale))}});
    // fleet-mix: one tenant per generator on the pool, the zipf tenant
    // replaying a binary trace; overlays turn on MSHRs, banked DRAM,
    // write-back queues and the non-LRU replacement policies. Two jobs:
    // the pool runs in parallel and steals, while the rest of the host's
    // CPUs stay free, so the wall clock measures the pool rather than
    // the machine's scheduler.
    if (name == "fleet-mix") {
        if (scratch_dir.find_first_of(" \t\n") != std::string::npos)
            throw std::invalid_argument(
                "scratch directory must not contain whitespace");
        const std::string trace = scratch_dir + "/fleet-mix-zipf-" +
                                  std::to_string(seed) + ".caltrc";
        Workload w = fleetWorkload(
            name, seed,
            {"zipf trace=" + trace + " mem.mshr_entries=8 mem.dram_banks=8",
             "stream workload=stream mem.mshr_entries=16 "
             "mem.dram_banks=16",
             "stackchurn workload=stackchurn",
             "ring workload=ring mem.wb_queue_entries=8",
             "attackmix workload=attackmix",
             "thrash workload=thrash mem.repl_policy=drrip",
             "scan workload=scan mem.repl_policy=ship",
             "mixed workload=mixed mem.repl_policy=dip "
             "mem.wb_queue_entries=8"},
            {}, scaled(1000000, ops_scale), 2);
        // The trace holds what the zipf generator tenant 0 would have
        // produced: tenant 0's seed is the base seed.
        Stream input;
        input.id = "zipf";
        input.config = w.base;
        input.generator = "zipf";
        input.ops = w.fleet.durationOps;
        w.traceInputs.emplace_back(trace, std::move(input));
        return w;
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

void
prepareInputs(const Workload &workload)
{
    for (const auto &[path, source] : workload.traceInputs) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        if (!os)
            throw std::runtime_error("cannot write trace '" + path + "'");
        OpenStream in = openStream(source);
        auto writer = makeTraceWriter(os, TraceFormat::Binary, source.ops);
        TraceOp op;
        while (in.readers.at(0)->next(op))
            writer->put(op);
        writer->finish();
        if (!os.flush())
            throw std::runtime_error("short write to '" + path + "'");
    }
}

EntryRun
runEntry(const Workload &workload, std::uint64_t ops)
{
    EntryRun out;
    if (workload.bench) {
        const auto t0 = std::chrono::steady_clock::now();
        RunResult result = runBenchmark(*workload.bench, workload.base);
        const auto t1 = std::chrono::steady_clock::now();
        out.wallNs = wallNs(t0, t1);
        out.ops = ops;
        out.digests.push_back(digestOf(result, ops));
        out.runResult = std::move(result);
    } else {
        const auto t0 = std::chrono::steady_clock::now();
        fleet::FleetResult result =
            fleet::runFleet(workload.fleet, workload.jobs);
        const auto t1 = std::chrono::steady_clock::now();
        out.wallNs = wallNs(t0, t1);
        out.ops = result.totalOps;
        for (const fleet::TenantResult &tenant : result.tenants)
            out.digests.push_back(digestOf(tenant));
        out.fleetResult = std::move(result);
    }
    return out;
}

SetupTimes
timeSetup(const Workload &workload)
{
    const auto t0 = std::chrono::steady_clock::now();
    const RunConfig base = configFrom(workload.baseSets);
    std::vector<RunConfig> configs;
    if (workload.bench) {
        configs.push_back(base);
    } else {
        fleet::FleetSpec spec;
        spec.base = base;
        spec.durationOps = workload.fleet.durationOps;
        for (const std::string &line : workload.tenantLines)
            spec.tenants.push_back(parseTenant(line));
        for (std::size_t i = 0; i < spec.tenants.size(); ++i)
            configs.push_back(fleet::resolveTenantConfig(spec, i));
    }
    const auto t1 = std::chrono::steady_clock::now();
    std::vector<std::unique_ptr<Machine>> machines;
    for (const RunConfig &config : configs)
        machines.push_back(std::make_unique<Machine>(
            config.machine, ExceptionUnit::Policy::Record));
    const auto t2 = std::chrono::steady_clock::now();
    std::vector<OpenStream> opened;
    TraceOp op;
    for (const Stream &stream : workload.streams) {
        opened.push_back(openStream(stream));
        for (const auto &reader : opened.back().readers)
            reader->next(op);
    }
    const auto t3 = std::chrono::steady_clock::now();
    return {wallNs(t0, t1), wallNs(t1, t2), wallNs(t2, t3)};
}

double
timeReportRender(const Workload &workload, const EntryRun &run)
{
    std::string json;
    if (run.fleetResult) {
        const auto t0 = std::chrono::steady_clock::now();
        json = fleet::fleetJson(workload.fleet, *run.fleetResult, true);
        return wallNs(t0, std::chrono::steady_clock::now());
    }
    exp::CampaignResult campaign;
    campaign.spec.name = workload.name;
    campaign.spec.suite = {workload.bench};
    campaign.spec.variants = {
        exp::Variant(workload.name, InsertionPolicy::None)};
    campaign.spec.base = workload.base;
    campaign.units = campaign.spec.expand();
    campaign.results = {*run.runResult};
    const auto t0 = std::chrono::steady_clock::now();
    json = exp::campaignJson(campaign, {true, 1, run.wallNs / 1e6});
    return wallNs(t0, std::chrono::steady_clock::now());
}

std::vector<double>
soloTenantNs(const Workload &workload)
{
    std::vector<double> out;
    if (workload.bench)
        return out;
    for (std::size_t i = 0; i < workload.fleet.tenants.size(); ++i) {
        fleet::FleetSpec solo = workload.fleet;
        solo.tenants = {workload.fleet.tenants[i]};
        // Alone, the tenant sits at index 0; pin the seed its stride
        // gave it in the full fleet.
        if (!solo.tenants[0].workload.empty() &&
            !solo.tenants[0].overlaySets("workload.seed"))
            solo.tenants[0].sets.emplace_back(
                "workload.seed",
                std::to_string(workload.streams[i].config.synth.seed));
        const auto t0 = std::chrono::steady_clock::now();
        fleet::runFleet(solo, 1);
        out.push_back(wallNs(t0, std::chrono::steady_clock::now()));
    }
    return out;
}

const std::vector<RecordedDigest> &
recordedDigests()
{
    // Taken at defaultSeed() from the decomposed replay, which equalled
    // the entry points' digests on every stream.
    static const std::vector<RecordedDigest> recorded = {
        {"zipf-deep", "zipf", 0xbc3c9a50860d4af1ull},
        {"stackchurn-l1", "stackchurn", 0x183ab4b45d19d911ull},
        {"ring-msi4", "ring", 0xe466975e847da308ull},
        {"fleet-mix", "zipf", 0x86fa4730979e01e3ull},
        {"fleet-mix", "stream", 0x894aded5c9487c88ull},
        {"fleet-mix", "stackchurn", 0x701aee3fa00f6315ull},
        {"fleet-mix", "ring", 0x28785d7fd7ec8ab0ull},
        {"fleet-mix", "attackmix", 0x544cf63a8e4d1916ull},
        {"fleet-mix", "thrash", 0x782148f1999ad677ull},
        {"fleet-mix", "scan", 0xa4a73930fc3d2299ull},
        {"fleet-mix", "mixed", 0x73149153f56b94bfull},
    };
    return recorded;
}

} // namespace perfbench
