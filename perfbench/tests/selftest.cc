/**
 * @file selftest.cc
 * Tests of the benchmark's own machinery:
 *
 *  - on a short run of every workload, the machine reassembled from
 *    SharedMemory + MemorySystem + CoreModel (traced and untraced)
 *    produces exactly the digests of runFleet / runBenchmark;
 *  - the serving-level classifier labels a hand-built L1-hit / L2-hit /
 *    LLC-hit / DRAM sequence on the default machine, and agrees with
 *    the hierarchy's own hit counters on every access.
 *
 *   perfbench_selftest [SCRATCH_DIR]   (default: the current directory)
 */

#include <cstdio>
#include <string>

#include "bench.hh"
#include "sim/memsys.hh"

using namespace perfbench;
using namespace califorms;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

const char *
levelName(Served level)
{
    static const char *names[] = {"L1", "L2", "LLC", "DRAM"};
    return names[static_cast<unsigned>(level)];
}

void
decomposedReplayMatchesEntryPoints(const std::string &scratch)
{
    for (const std::string &name : workloadNames()) {
        const Workload w = makeWorkload(name, defaultSeed() + 1, 0.02,
                                        scratch);
        prepareInputs(w);
        std::vector<StreamDigest> plain, traced;
        Ledger ledger;
        std::uint64_t ops = 0;
        for (const Stream &stream : w.streams) {
            plain.push_back(replayDecomposed(stream, nullptr));
            traced.push_back(replayDecomposed(stream, &ledger));
            ops += plain.back().ops;
        }
        const EntryRun entry = runEntry(w, ops);
        bool same = entry.digests.size() == plain.size() && ops > 0;
        for (std::size_t i = 0; same && i < plain.size(); ++i)
            same = entry.digests[i] == plain[i] && traced[i] == plain[i];
        check(same, name + ": decomposed replay equals the entry point (" +
                        std::to_string(ops) + " ops)");
        check(ledger.ops == ops && ledger.attributedNs() < ledger.wallNs,
              name + ": ledger covers every op within the traced wall");
    }
}

/** One timed load on a standalone hierarchy: the classifier's verdict
 *  and the level whose counters moved. */
std::pair<Served, Served>
probe(MemorySystem &mem, Addr addr)
{
    const MemSysStats before = mem.stats();
    const auto res = mem.load(addr, 8);
    const MemSysStats after = mem.stats();
    Served counted = Served::Dram;
    if (after.l1.hits > before.l1.hits)
        counted = Served::L1;
    else if (after.l2.hits > before.l2.hits)
        counted = Served::L2;
    else if (after.l3.hits > before.l3.hits)
        counted = Served::Llc;
    return {classifyServed(res.latency, mem.params()), counted};
}

void
classifierLabelsHandBuiltSequence()
{
    const MemSysParams params{};
    ExceptionUnit exceptions;
    MemorySystem mem(params, exceptions);
    const Addr a = 0x100000;
    // Default geometry: L1 32KB 8-way (4KB set stride), L2 256KB 8-way
    // (32KB set stride), LLC 2MB 16-way (128KB set stride), all LRU.
    bool agree = true;
    const auto expect = [&](Served want, const std::string &step) {
        const auto [judged, counted] = probe(mem, a);
        check(judged == want, std::string("classifier: ") + step +
                                  " is " + levelName(want) + " (judged " +
                                  levelName(judged) + ")");
        agree = agree && judged == counted;
    };
    const auto touch = [&](Addr stride, Addr count) {
        for (Addr k = 1; k <= count; ++k) {
            const auto [judged, counted] = probe(mem, a + k * stride);
            agree = agree && judged == counted;
        }
    };
    expect(Served::Dram, "cold load");
    expect(Served::L1, "reload");
    touch(4 * 1024, 8); // eight L1 conflicts, all in other L2 sets
    expect(Served::L2, "after L1 eviction");
    // Sixteen L1 and L2 conflicts (some already cached), four of them
    // in its 16-way LLC set.
    touch(32 * 1024, 16);
    expect(Served::Llc, "after L1 and L2 eviction");
    check(agree, "classifier agrees with the hit counters on every access");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string scratch = argc > 1 ? argv[1] : ".";
    try {
        decomposedReplayMatchesEntryPoints(scratch);
        classifierLabelsHandBuiltSequence();
    } catch (const std::exception &e) {
        check(false, std::string("threw: ") + e.what());
    }
    std::printf("%d failure(s)\n", failures);
    return failures ? 1 : 0;
}
