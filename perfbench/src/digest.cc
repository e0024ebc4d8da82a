#include <algorithm>

#include "bench.hh"

namespace perfbench
{

namespace
{

using califorms::CacheStats;

constexpr std::uint64_t CacheStats::*kCacheFields[] = {
    &CacheStats::hits,           &CacheStats::misses,
    &CacheStats::evictions,      &CacheStats::dirtyEvictions,
    &CacheStats::cformEvictions,
};

constexpr CacheStats MemSysStats::*kLevels[] = {
    &MemSysStats::l1,
    &MemSysStats::l2,
    &MemSysStats::l3,
};

constexpr std::uint64_t MemSysStats::*kFields[] = {
    &MemSysStats::dramAccesses,
    &MemSysStats::spills,
    &MemSysStats::fills,
    &MemSysStats::cformOps,
    &MemSysStats::securityFaults,
    &MemSysStats::fillConvCycles,
    &MemSysStats::spillConvCycles,
    &MemSysStats::wbHits,
    &MemSysStats::wbEnqueued,
    &MemSysStats::wbForcedDrains,
    &MemSysStats::wbPeakOccupancy,
    &MemSysStats::invalidationsSent,
    &MemSysStats::dirtyRecalls,
    &MemSysStats::convUnderInval,
    &MemSysStats::coherenceConvCycles,
    &MemSysStats::mshrAllocations,
    &MemSysStats::mshrCoalesced,
    &MemSysStats::mshrStallCycles,
    &MemSysStats::mshrPeakOccupancy,
    &MemSysStats::dramRowHits,
    &MemSysStats::dramRowMisses,
    &MemSysStats::dramRowConflicts,
    &MemSysStats::dramBankConflictCycles,
};

void
appendStats(std::vector<std::uint64_t> &out, const MemSysStats &s)
{
    for (const auto level : kLevels)
        for (const auto field : kCacheFields)
            out.push_back((s.*level).*field);
    for (const auto field : kFields)
        out.push_back(s.*field);
}

} // namespace

std::vector<std::uint64_t>
StreamDigest::words() const
{
    std::vector<std::uint64_t> out = {
        ops,
        checksum.has_value(),
        checksum.value_or(0),
        cycles,
        instructions,
        exceptionsDelivered,
        exceptionsSuppressed,
        cores.size(),
    };
    appendStats(out, mem);
    for (const CoreDigest &core : cores) {
        out.push_back(core.cycles);
        out.push_back(core.instructions);
        appendStats(out, core.mem);
    }
    return out;
}

std::uint64_t
StreamDigest::hash() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t word : words()) {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

void
mergeStats(MemSysStats &acc, const MemSysStats &add)
{
    for (const auto level : kLevels)
        for (const auto field : kCacheFields)
            (acc.*level).*field += (add.*level).*field;
    for (const auto field : kFields) {
        const bool peak = field == &MemSysStats::wbPeakOccupancy ||
                          field == &MemSysStats::mshrPeakOccupancy;
        acc.*field = peak ? std::max(acc.*field, add.*field)
                          : acc.*field + add.*field;
    }
}

StreamDigest
digestOf(const califorms::fleet::TenantResult &tenant)
{
    StreamDigest d;
    d.id = tenant.id;
    d.ops = tenant.replay.ops;
    d.checksum = tenant.replay.checksum;
    d.cycles = tenant.cycles;
    d.instructions = tenant.instructions;
    d.mem = tenant.mem;
    d.exceptionsDelivered = tenant.exceptionsDelivered;
    d.exceptionsSuppressed = tenant.exceptionsSuppressed;
    return d;
}

StreamDigest
digestOf(const califorms::RunResult &run, std::uint64_t ops)
{
    StreamDigest d;
    d.id = run.benchmark;
    d.ops = ops;
    d.cycles = run.cycles;
    d.instructions = run.instructions;
    d.mem = run.mem;
    d.exceptionsDelivered = run.exceptionsDelivered;
    d.exceptionsSuppressed = run.exceptionsSuppressed;
    for (const califorms::CoreRunStats &core : run.cores)
        d.cores.push_back({core.cycles, core.instructions, core.mem});
    return d;
}

} // namespace perfbench
