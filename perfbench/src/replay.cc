#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_set>

#include "bench.hh"
#include "core/sentinel.hh"
#include "sim/core_model.hh"
#include "sim/memsys.hh"
#include "sim/shared_mem.hh"
#include "workload/synth.hh"

namespace perfbench
{

using namespace califorms;

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Cost of one back-to-back pair of nowNs() calls (median of many):
 *  the timer's own share of every timed interval, netted out of the
 *  layer times so it lands in the unattributed remainder instead. */
double
timerFloorNs()
{
    std::vector<std::int64_t> gaps(4001);
    for (auto &gap : gaps) {
        const std::int64_t t0 = nowNs();
        gap = nowNs() - t0;
    }
    std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2,
                     gaps.end());
    return static_cast<double>(gaps[gaps.size() / 2]);
}

template <typename T>
void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/** Lines sampled for the post-run backing-store and codec timings, and
 *  the number of calls each timing makes at least. */
constexpr std::size_t kSampleLines = 1 << 16;
constexpr std::uint64_t kMicroCalls = 200000;

/**
 * Machine's parts, assembled the way Machine's constructor assembles
 * them: the exception unit and the shared side first, then one private
 * side and one core model per core (attachment order = core id).
 */
struct Rig
{
    explicit Rig(const MachineParams &p) : params(p), shared(p.mem)
    {
        if (p.core.count < 1 || p.core.count > 32)
            throw std::invalid_argument("core.count must be 1..32");
        for (unsigned c = 0; c < p.core.count; ++c) {
            mems.push_back(
                std::make_unique<MemorySystem>(p.mem, exceptions, shared));
            cores.emplace_back(p.core, p.mem.l1Latency);
        }
    }

    /** Machine::cycles(): the slowest core, floored by the DRAM
     *  bandwidth roofline. */
    Cycles
    cycles() const
    {
        Cycles slowest = 0;
        for (const CoreModel &core : cores)
            slowest = std::max(slowest, core.cycles());
        const auto floor = static_cast<Cycles>(
            static_cast<double>(shared.dramAccesses()) *
            params.core.dramCyclesPerLine);
        return std::max(slowest, floor);
    }

    MemSysStats
    stats() const
    {
        MemSysStats out;
        for (const auto &mem : mems)
            mergeStats(out, mem->privateStats());
        shared.mergeStatsInto(out);
        return out;
    }

    /** The machine-level view of a line: private copies in core order,
     *  then the shared side. */
    BitVectorLine
    lineAt(Addr la) const
    {
        BitVectorLine line;
        for (const auto &mem : mems)
            if (mem->peekPrivateLine(la, line))
                return line;
        return fillLine(shared.functionalRead(la));
    }

    MachineParams params;
    ExceptionUnit exceptions{ExceptionUnit::Policy::Record};
    SharedMemory shared;
    std::vector<std::unique_ptr<MemorySystem>> mems;
    std::vector<CoreModel> cores;
};

/** Drives one op at a time into a Rig, the way Machine's per-op
 *  methods do, timing each layer call when Timed. */
template <bool Timed> class Replayer
{
  public:
    Replayer(Rig &rig, Ledger *ledger) : rig_(rig), ledger_(ledger)
    {
        if constexpr (Timed)
            floor_ = timerFloorNs();
    }

    std::int64_t
    stamp() const
    {
        if constexpr (Timed)
            return nowNs();
        else
            return 0;
    }

    /** A timed interval net of the timer's own cost. */
    double
    span(std::int64_t from, std::int64_t to) const
    {
        return static_cast<double>(to - from) - floor_;
    }

    void
    run(unsigned c, const TraceOp &op)
    {
        MemorySystem &mem = *rig_.mems[c];
        CoreModel &core = rig_.cores[c];
        switch (op.kind) {
        case TraceOp::Kind::Load: {
            const std::int64_t t0 = stamp();
            mem.syncClock(core.cycles());
            const auto res = mem.load(op.addr, op.size);
            const std::int64_t t1 = stamp();
            core.retireLoad(res.latency, op.dependsOnPrev);
            checksum ^= res.value;
            noteAccess(op.addr, res.latency, t0, t1);
            break;
        }
        case TraceOp::Kind::Store: {
            const std::int64_t t0 = stamp();
            mem.syncClock(core.cycles());
            const auto res = mem.store(op.addr, op.size, op.value);
            const std::int64_t t1 = stamp();
            core.retireStore(res.latency);
            noteAccess(op.addr, res.latency, t0, t1);
            break;
        }
        case TraceOp::Kind::Cform: {
            const std::int64_t t0 = stamp();
            mem.syncClock(core.cycles());
            const auto res = mem.cform(op.cform);
            const std::int64_t t1 = stamp();
            core.retireCform(res.latency);
            if constexpr (Timed) {
                const std::int64_t t2 = stamp();
                ledger_->cformNs += span(t0, t1);
                ++ledger_->cforms;
                ledger_->retireNs += span(t1, t2);
                if (cformLines.size() < kSampleLines)
                    cformLines.insert(op.cform.lineAddr);
            }
            break;
        }
        case TraceOp::Kind::Compute: {
            const std::int64_t t0 = stamp();
            core.retireCompute(op.computeOps);
            if constexpr (Timed)
                ledger_->retireNs += span(t0, stamp());
            break;
        }
        }
    }

    std::uint64_t checksum = 0;
    std::vector<Addr> dramLines;
    std::unordered_set<Addr> cformLines;

  private:
    void
    noteAccess(Addr addr, Cycles latency, std::int64_t t0,
               std::int64_t t1)
    {
        if constexpr (Timed) {
            const std::int64_t t2 = stamp();
            const auto level = static_cast<unsigned>(
                classifyServed(latency, rig_.params.mem));
            ledger_->servedNs[level] += span(t0, t1);
            ++ledger_->served[level];
            ledger_->retireNs += span(t1, t2);
            if (level == static_cast<unsigned>(Served::Dram) &&
                dramLines.size() < kSampleLines)
                dramLines.push_back(lineBase(addr));
        } else {
            (void)addr;
            (void)latency;
            (void)t0;
            (void)t1;
        }
    }

    Rig &rig_;
    Ledger *ledger_;
    double floor_ = 0;
};

/** Time MainMemory::readLine/writeLine over @p lines of the post-run
 *  store, repeating the sample until kMicroCalls calls were made. */
void
timeBackingStore(MainMemory &memory, const std::vector<Addr> &lines,
                 Ledger &ledger)
{
    if (lines.empty())
        return;
    const std::uint64_t rounds =
        (kMicroCalls + lines.size() - 1) / lines.size();
    std::vector<SentinelLine> values(lines.size());
    const std::int64_t t0 = nowNs();
    for (std::uint64_t r = 0; r < rounds; ++r)
        for (std::size_t i = 0; i < lines.size(); ++i)
            values[i] = memory.readLine(lines[i]);
    const std::int64_t t1 = nowNs();
    for (std::uint64_t r = 0; r < rounds; ++r)
        for (std::size_t i = 0; i < lines.size(); ++i)
            memory.writeLine(lines[i], values[i]);
    const std::int64_t t2 = nowNs();
    keep(values);
    ledger.mainReadNs += static_cast<double>(t1 - t0);
    ledger.mainWriteNs += static_cast<double>(t2 - t1);
    ledger.mainCalls += rounds * lines.size();
}

/** Time fillLine/spillLine over the califormed lines among @p lines
 *  as the machine holds them after the run. */
void
timeCodec(const Rig &rig, const std::unordered_set<Addr> &lines,
          Ledger &ledger)
{
    std::vector<BitVectorLine> decoded;
    for (Addr la : lines) {
        BitVectorLine line = rig.lineAt(la);
        if (line.califormed())
            decoded.push_back(line);
    }
    if (decoded.empty())
        return;
    std::vector<SentinelLine> encoded;
    for (const BitVectorLine &line : decoded)
        encoded.push_back(spillLine(line));
    const std::uint64_t rounds =
        (kMicroCalls + decoded.size() - 1) / decoded.size();
    const std::int64_t t0 = nowNs();
    for (std::uint64_t r = 0; r < rounds; ++r)
        for (const SentinelLine &line : encoded)
            keep(fillLine(line));
    const std::int64_t t1 = nowNs();
    for (std::uint64_t r = 0; r < rounds; ++r)
        for (const BitVectorLine &line : decoded)
            keep(spillLine(line));
    const std::int64_t t2 = nowNs();
    ledger.codecFillNs += static_cast<double>(t1 - t0);
    ledger.codecSpillNs += static_cast<double>(t2 - t1);
    ledger.codecCalls += rounds * decoded.size();
}

template <bool Timed>
StreamDigest
replay(const Stream &stream, Ledger *ledger)
{
    const std::int64_t start = nowNs();
    Rig rig(stream.config.machine);
    OpenStream open = openStream(stream);
    Replayer<Timed> replayer(rig, ledger);
    std::uint64_t ops = 0;
    double reader_ns = 0;
    TraceOp op;

    if (stream.batchOps) {
        // The fleet kernel's shape: bulk fill() batches, capped by the
        // budget so a capped replay never over-reads.
        TraceReader &reader = *open.readers.at(0);
        std::vector<TraceOp> batch(stream.batchOps);
        for (;;) {
            std::size_t want = stream.batchOps;
            if (stream.budget) {
                const std::uint64_t left = stream.budget - ops;
                if (!left)
                    break;
                want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(want, left));
            }
            const std::int64_t t0 = replayer.stamp();
            const std::size_t n = reader.fill(batch.data(), want);
            reader_ns += replayer.span(t0, replayer.stamp());
            for (std::size_t i = 0; i < n; ++i)
                replayer.run(0, batch[i]);
            ops += n;
            if (n < want)
                break;
        }
    } else {
        // The multi-core kernel's shape: one next() per core per
        // round, in core order; a drained stream leaves the rotation.
        if (open.readers.size() != rig.mems.size())
            throw std::invalid_argument("one reader per core required");
        std::vector<bool> alive(open.readers.size(), true);
        std::size_t live = open.readers.size();
        while (live) {
            for (unsigned c = 0; c < open.readers.size(); ++c) {
                if (!alive[c])
                    continue;
                const std::int64_t t0 = replayer.stamp();
                const bool got = open.readers[c]->next(op);
                reader_ns += replayer.span(t0, replayer.stamp());
                if (!got) {
                    alive[c] = false;
                    --live;
                    continue;
                }
                replayer.run(c, op);
                ++ops;
            }
        }
    }
    const std::int64_t end = nowNs();

    StreamDigest d;
    d.id = stream.id;
    d.ops = ops;
    if (stream.hasChecksum)
        d.checksum = replayer.checksum;
    d.cycles = rig.cycles();
    for (const CoreModel &core : rig.cores)
        d.instructions += core.instructions();
    d.mem = rig.stats();
    d.exceptionsDelivered = rig.exceptions.deliveredCount();
    d.exceptionsSuppressed = rig.exceptions.suppressedCount();
    if (rig.mems.size() > 1)
        for (unsigned c = 0; c < rig.mems.size(); ++c)
            d.cores.push_back({rig.cores[c].cycles(),
                               rig.cores[c].instructions(),
                               rig.mems[c]->privateStats()});

    if constexpr (Timed) {
        ledger->ops += ops;
        ledger->wallNs += static_cast<double>(end - start);
        ledger->readerNs += reader_ns;
        mergeStats(ledger->stats, d.mem);
        ledger->backedLines += rig.shared.memory().backedLines();
        // The digest is taken; the store and the codec may be touched.
        timeCodec(rig, replayer.cformLines, *ledger);
        timeBackingStore(rig.shared.memory(), replayer.dramLines,
                         *ledger);
    }
    return d;
}

} // namespace

Served
classifyServed(Cycles latency, const MemSysParams &mem)
{
    // The fastest service each enabled level can give beyond the
    // level above it; an access costing less than the cumulative
    // service of a level was served above it.
    const Cycles dram_min =
        mem.dramBanks ? std::min({mem.dramRowHitLatency,
                                  mem.dramRowMissLatency,
                                  mem.dramRowConflictLatency})
                      : mem.dramLatency;
    const struct
    {
        Served level;
        bool enabled;
        Cycles cost;
    } steps[] = {
        {Served::L2, mem.levels >= 2 && mem.l2Size > 0,
         mem.l2Latency + mem.extraL2L3Latency},
        {Served::Llc, mem.levels >= 3 && mem.l3Size > 0,
         mem.l3Latency + mem.extraL2L3Latency},
        {Served::Dram, true, dram_min},
    };
    Served served = Served::L1;
    Cycles need = mem.l1Latency + l1FormatExtraLatency(mem.l1Format);
    for (const auto &step : steps) {
        if (!step.enabled)
            continue;
        need += step.cost;
        if (latency < need)
            return served;
        served = step.level;
    }
    return served;
}

double
Ledger::attributedNs() const
{
    double total = readerNs + retireNs + cformNs;
    for (double ns : servedNs)
        total += ns;
    return total;
}

OpenStream
openStream(const Stream &stream)
{
    OpenStream out;
    const SynthParams &synth = stream.config.synth;
    const unsigned cores = stream.config.machine.core.count;
    if (stream.generator.empty()) {
        out.file = std::make_unique<std::ifstream>(stream.tracePath,
                                                   std::ios::binary);
        if (!*out.file)
            throw std::runtime_error("cannot open trace '" +
                                     stream.tracePath + "'");
        out.readers.push_back(openTraceReader(*out.file));
    } else if (cores == 1) {
        out.readers.push_back(
            makeSynthGenerator(stream.generator, synth, stream.ops));
    } else {
        out.readers =
            makeSynthStreams(stream.generator, synth, stream.ops, cores);
    }
    return out;
}

StreamDigest
replayDecomposed(const Stream &stream, Ledger *ledger)
{
    return ledger ? replay<true>(stream, ledger)
                  : replay<false>(stream, nullptr);
}

std::uint64_t
replayPlain(const Stream &stream)
{
    Machine machine(stream.config.machine, ExceptionUnit::Policy::Record);
    OpenStream open = openStream(stream);
    std::uint64_t ops = 0;
    std::uint64_t checksum = 0;
    TraceOp op;
    std::vector<bool> alive(open.readers.size(), true);
    std::size_t live = open.readers.size();
    while (live) {
        for (unsigned c = 0; c < open.readers.size(); ++c) {
            if (!alive[c])
                continue;
            if ((stream.budget && ops >= stream.budget) ||
                !open.readers[c]->next(op)) {
                alive[c] = false;
                --live;
                continue;
            }
            ++ops;
            switch (op.kind) {
            case TraceOp::Kind::Load:
                checksum ^=
                    machine.loadOn(c, op.addr, op.size, op.dependsOnPrev);
                break;
            case TraceOp::Kind::Store:
                machine.storeOn(c, op.addr, op.size, op.value);
                break;
            case TraceOp::Kind::Cform:
                machine.cformOn(c, op.cform);
                break;
            case TraceOp::Kind::Compute:
                machine.computeOn(c, op.computeOps);
                break;
            }
        }
    }
    keep(checksum);
    return ops;
}

} // namespace perfbench
