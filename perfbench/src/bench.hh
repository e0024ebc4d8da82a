/**
 * @file bench.hh
 * The host-cost benchmark's machinery: the four workloads, the
 * per-stream output digest the correctness check compares, and the
 * decomposed replay that re-drives each stream through the public
 * layer calls (TraceReader, MemorySystem, CoreModel, SharedMemory,
 * MainMemory, the sentinel codec) with a host-time ledger around them.
 *
 * Nothing here changes the simulator: the untraced runs go through the
 * entry points users call (fleet::runFleet, runBenchmark), and the
 * traced run reassembles the same machine from its public parts so
 * every timed call is made from this directory's own code.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/engine.hh"
#include "sim/trace.hh"
#include "workload/runner.hh"

namespace perfbench
{

using califorms::Cycles;
using califorms::MemSysStats;
using califorms::RunConfig;

// Digest ---------------------------------------------------------------

/** One core's share of a multi-core stream. */
struct CoreDigest
{
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    MemSysStats mem{};
};

/** Every simulated output of one stream the correctness check pins. */
struct StreamDigest
{
    std::string id;
    std::uint64_t ops = 0;
    /** The load-XOR checksum, where the entry point returns one. */
    std::optional<std::uint64_t> checksum;
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    MemSysStats mem{};
    /** Per-core breakdown; filled only on multi-core streams. */
    std::vector<CoreDigest> cores;
    std::uint64_t exceptionsDelivered = 0;
    std::uint64_t exceptionsSuppressed = 0;

    /** Every compared output as one word list, in a fixed order. */
    std::vector<std::uint64_t> words() const;
    /** FNV-1a over words(): the form recorded for the default seed. */
    std::uint64_t hash() const;
    bool operator==(const StreamDigest &other) const
    {
        return words() == other.words();
    }
};

/** Fold one core's private counters into @p acc the way the machine
 *  aggregates cores: high-water marks take the max, the rest add. */
void mergeStats(MemSysStats &acc, const MemSysStats &add);

StreamDigest digestOf(const califorms::fleet::TenantResult &tenant);
/** runBenchmark reports no op count; @p ops comes from the replay. */
StreamDigest digestOf(const califorms::RunResult &run,
                      std::uint64_t ops);

// Streams and the decomposed replay ---------------------------------

/** One independently replayed stream: a fleet tenant, or a whole
 *  multi-core benchmark run (one reader per core, interleaved). */
struct Stream
{
    std::string id;
    RunConfig config{}; //!< fully resolved (overlay, seed stride)
    /** Synthetic generator name; empty for a trace tenant. */
    std::string generator;
    std::string tracePath;
    /** Ops each generator produces (per core). */
    std::uint64_t ops = 0;
    /** Replay budget, 0 = drain (fleet trace tenants are capped). */
    std::uint64_t budget = 0;
    /** > 0: single core, pulled in fill() batches of this size (the
     *  fleet kernel); 0: per-core next() in round-robin order (the
     *  multi-core benchmark kernel). */
    std::size_t batchOps = 0;
    bool hasChecksum = false;
};

/** A stream's readers plus the file a trace reader parses from. */
struct OpenStream
{
    std::unique_ptr<std::ifstream> file;
    std::vector<std::unique_ptr<califorms::TraceReader>> readers;
};

/** Construct @p stream's readers exactly as the entry point does. */
OpenStream openStream(const Stream &stream);

/** The level that served one access, judged from its latency. */
enum class Served : unsigned
{
    L1,
    L2,
    Llc,
    Dram,
};
inline constexpr unsigned kServedLevels = 4;

/**
 * Classify a load/store latency against the machine's configured
 * per-level hit latencies: below the L2 service time it was an L1 hit
 * (or a write-back-queue hit), below the LLC's an L2 hit, below the
 * fastest DRAM service an LLC hit, else DRAM. Queueing (MSHR stalls,
 * coherence probes) can push an access one bucket down; the ledger
 * states this resolution.
 */
Served classifyServed(Cycles latency, const califorms::MemSysParams &mem);

/** Host-time ledger of traced replays, summed over streams. Each
 *  timed call is recorded net of the timer's own back-to-back cost. */
struct Ledger
{
    std::uint64_t ops = 0;
    double wallNs = 0; //!< rig + readers + replay loop
    double readerNs = 0; //!< TraceReader::fill / next
    double retireNs = 0; //!< CoreModel::retire*
    /** MemorySystem::syncClock + load/store, by serving level. */
    double servedNs[kServedLevels] = {};
    std::uint64_t served[kServedLevels] = {};
    double cformNs = 0; //!< syncClock + MemorySystem::cform
    std::uint64_t cforms = 0;
    MemSysStats stats{}; //!< merged over streams
    std::uint64_t backedLines = 0;
    // Post-run micro timings (totals and call counts).
    double mainReadNs = 0, mainWriteNs = 0;
    std::uint64_t mainCalls = 0;
    double codecFillNs = 0, codecSpillNs = 0;
    std::uint64_t codecCalls = 0;

    /** Host time inside the timed layer calls during the replay. */
    double attributedNs() const;
};

/**
 * Replay @p stream on a machine reassembled from SharedMemory, one
 * MemorySystem and one CoreModel per core, following the exact call
 * order of Machine's per-op methods. With a @p ledger every layer call
 * is timed into it and, after the digest is taken, the backing store
 * and the codec are timed over the lines the replay touched.
 */
StreamDigest replayDecomposed(const Stream &stream, Ledger *ledger);

/** The plain loop the fleet kernel is compared with: a Machine fed
 *  one next() per op, untimed inside. Returns the ops replayed. */
std::uint64_t replayPlain(const Stream &stream);

// Workloads -------------------------------------------------------------

/** Per-phase set-up cost of one workload, in nanoseconds. */
struct SetupTimes
{
    double configNs = 0;
    double machineNs = 0;
    double readerNs = 0;
    double total() const { return configNs + machineNs + readerNs; }
};

/** One benchmark workload: its entry-point call and its streams. */
struct Workload
{
    std::string name;
    unsigned jobs = 1;
    /** Fleet workloads: tenant manifest lines and the fleet spec. */
    std::vector<std::string> tenantLines;
    califorms::fleet::FleetSpec fleet{};
    /** Benchmark workloads: the runBenchmark suite entry (else null). */
    const califorms::SpecBenchmark *bench = nullptr;
    /** Registry overrides of the base config (seed included). */
    std::vector<std::pair<std::string, std::string>> baseSets;
    RunConfig base{};
    /** Same streams, resolved for the decomposed replay. */
    std::vector<Stream> streams;
    /** Binary traces to write before timing: (path, generated stream). */
    std::vector<std::pair<std::string, Stream>> traceInputs;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The seed the recorded digests were taken at (workload.seed's
 *  registry default). */
std::uint64_t defaultSeed();

/** Build workload @p name at @p seed with every stream's op count
 *  scaled by @p ops_scale; generated inputs go under @p scratch_dir.
 *  Throws std::invalid_argument on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      double ops_scale, const std::string &scratch_dir);

/** Write the workload's input traces (not timed). */
void prepareInputs(const Workload &workload);

/** One untraced call of the workload's public entry point. */
struct EntryRun
{
    double wallNs = 0;
    std::uint64_t ops = 0;
    std::vector<StreamDigest> digests;
    std::optional<califorms::fleet::FleetResult> fleetResult;
    std::optional<califorms::RunResult> runResult;
};

/** Call runFleet / runBenchmark once, timed from outside. @p ops is
 *  the replayed op total, used where the entry point reports none. */
EntryRun runEntry(const Workload &workload, std::uint64_t ops);

/** Time one set-up of the workload: config resolution, Machine
 *  construction, reader construction up to the first op. */
SetupTimes timeSetup(const Workload &workload);

/** Host time of rendering the entry point's JSON report. */
double timeReportRender(const Workload &workload, const EntryRun &run);

/** Each fleet tenant replayed alone through runFleet on one job, in
 *  ns; empty for benchmark workloads. */
std::vector<double> soloTenantNs(const Workload &workload);

/** The digests recorded at defaultSeed(): (workload, stream id, hash). */
struct RecordedDigest
{
    const char *workload;
    const char *stream;
    std::uint64_t hash;
};
const std::vector<RecordedDigest> &recordedDigests();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
