/**
 * @file micro_memstore.cc
 * Google-benchmark microbenchmarks of the shared side's two data
 * structures: the set-associative CacheArray (hit lookup, and a miss
 * followed by an insert that evicts, under each replacement policy at
 * 8 and 16 ways) and the MainMemory backing store (reads of backed and
 * never-written lines, writes of fresh lines and overwrites).
 *
 * Arrays are LLC-sized (2 MB of SentinelLine payloads) and the backing
 * store holds 64k lines, so lookups pay the host-cache behaviour of the
 * real layouts rather than an L1-resident toy.
 */

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "core/line.hh"
#include "sim/cache_array.hh"
#include "sim/main_memory.hh"
#include "util/rng.hh"

namespace califorms
{
namespace
{

constexpr std::size_t kArrayBytes = 2 * 1024 * 1024;
constexpr std::size_t kStoreLines = std::size_t{1} << 16;

/** @p n line addresses scattered over a 64 GB space, seeded. */
std::vector<Addr>
scatteredLines(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> out(n);
    for (Addr &a : out)
        a = lineBytes * rng.nextBelow(std::uint64_t{1} << 30);
    return out;
}

void
BM_CacheArrayHit(benchmark::State &state)
{
    const unsigned ways = static_cast<unsigned>(state.range(0));
    CacheArray<SentinelLine> array(kArrayBytes, ways);
    // Fill every way of every set, then look the lines up in a
    // shuffled order so consecutive hits land in unrelated sets.
    const std::size_t lines = kArrayBytes / lineBytes;
    std::vector<Addr> resident(lines);
    for (std::size_t i = 0; i < lines; ++i) {
        resident[i] = i * lineBytes;
        array.insert(resident[i], SentinelLine{}, false);
    }
    Rng rng(1);
    for (std::size_t i = lines; i > 1; --i)
        std::swap(resident[i - 1], resident[rng.nextBelow(i)]);
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.access(resident[next], false));
        next = next + 1 == lines ? 0 : next + 1;
    }
}
BENCHMARK(BM_CacheArrayHit)->Arg(8)->Arg(16);

void
BM_CacheArrayMissInsert(benchmark::State &state)
{
    const auto policy = static_cast<ReplPolicy>(state.range(0));
    const unsigned ways = static_cast<unsigned>(state.range(1));
    state.SetLabel(replPolicyName(policy));
    CacheArray<SentinelLine> array(kArrayBytes, ways, policy);
    // A scattered stream 4x the capacity: after the warm-up fill every
    // lookup misses (or rarely hits) and every insert evicts.
    const std::vector<Addr> stream =
        scatteredLines(4 * kArrayBytes / lineBytes, 2);
    for (std::size_t i = 0; i < kArrayBytes / lineBytes; ++i)
        array.insert(stream[i], SentinelLine{}, false);
    std::size_t next = 0;
    SentinelLine line;
    for (auto _ : state) {
        const Addr la = stream[next];
        if (!array.access(la, false)) {
            line.raw[0] = static_cast<std::uint8_t>(next);
            benchmark::DoNotOptimize(array.insert(la, line, false));
        }
        next = next + 1 == stream.size() ? 0 : next + 1;
    }
}

/** Every concrete policy at 8 and 16 ways. */
void
policiesByWays(benchmark::internal::Benchmark *b)
{
    for (const ReplPolicy policy :
         {ReplPolicy::Lru, ReplPolicy::Random, ReplPolicy::Dip,
          ReplPolicy::Drrip, ReplPolicy::Ship})
        for (const long ways : {8, 16})
            b->Args({static_cast<long>(policy), ways});
}
BENCHMARK(BM_CacheArrayMissInsert)->Apply(policiesByWays);

/** A store backing every line of @p lines. */
MainMemory
backedStore(const std::vector<Addr> &lines)
{
    MainMemory memory;
    SentinelLine line;
    for (Addr la : lines) {
        line.raw[1] = static_cast<std::uint8_t>(la >> lineShift);
        memory.writeLine(la, line);
    }
    return memory;
}

/** Arg 1: read backed lines; arg 0: read never-written lines. */
void
BM_MainMemoryRead(benchmark::State &state)
{
    const bool present = state.range(0) != 0;
    const std::vector<Addr> backed = scatteredLines(kStoreLines, 3);
    MainMemory memory = backedStore(backed);
    // Backed lines sit below 64 GB; the same lines moved above it are
    // never backed.
    std::vector<Addr> probes = backed;
    if (!present)
        for (Addr &a : probes)
            a += Addr{1} << 36;
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(memory.readLine(probes[next]));
        next = next + 1 == probes.size() ? 0 : next + 1;
    }
}
BENCHMARK(BM_MainMemoryRead)->ArgName("present")->Arg(1)->Arg(0);

/** Arg 1: overwrite backed lines; arg 0: write fresh lines, starting a
 *  new store every kStoreLines writes so memory stays bounded (the
 *  table growths are part of the measured cost). */
void
BM_MainMemoryWrite(benchmark::State &state)
{
    const bool overwrite = state.range(0) != 0;
    const std::vector<Addr> lines = scatteredLines(kStoreLines, 5);
    MainMemory memory = overwrite ? backedStore(lines) : MainMemory{};
    SentinelLine line;
    std::size_t next = 0;
    for (auto _ : state) {
        line.raw[0] = static_cast<std::uint8_t>(next);
        memory.writeLine(lines[next], line);
        if (++next == lines.size()) {
            next = 0;
            if (!overwrite) {
                state.PauseTiming();
                memory = MainMemory{};
                state.ResumeTiming();
            }
        }
    }
    benchmark::DoNotOptimize(memory.backedLines());
}
BENCHMARK(BM_MainMemoryWrite)->ArgName("overwrite")->Arg(1)->Arg(0);

} // namespace
} // namespace califorms
