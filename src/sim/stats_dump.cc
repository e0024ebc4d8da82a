#include "sim/stats_dump.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string_view>

#include "sim/machine.hh"
#include "util/jsonout.hh"

namespace califorms
{

namespace
{

using M = MemSysStats;
using C = CacheStats;
using enum StatGroup;
using enum StatMerge;

constexpr StatDef
stat(const char *name, const char *doc, StatGroup group, StatMerge merge,
     std::uint64_t M::*field)
{
    return {name, doc, group, merge, field};
}

constexpr StatDef
cacheStat(const char *name, const char *doc, StatGroup group,
          StatMerge merge, C M::*level, std::uint64_t C::*field)
{
    return {name, doc, group, merge, nullptr, level, field};
}

constexpr StatDef
derived(const char *name, const char *doc, StatGroup group,
        double (*derive)(const M &))
{
    return {name, doc, group, Derived, nullptr, nullptr, nullptr,
            derive};
}

template <C M::*Level>
double
missRate(const M &stats)
{
    return (stats.*Level).missRate();
}

double
cformVictimRate(const M &mem)
{
    const double evictions = static_cast<double>(
        mem.l1.evictions + mem.l2.evictions + mem.l3.evictions);
    const double cform = static_cast<double>(mem.l1.cformEvictions +
                                             mem.l2.cformEvictions +
                                             mem.l3.cformEvictions);
    return evictions ? cform / evictions : 0.0;
}

// clang-format off
constexpr StatDef kStats[] = {
    cacheStat("l1d.hits", "hits", Mem, Sum, &M::l1, &C::hits),
    cacheStat("l1d.misses", "misses", Mem, Sum, &M::l1, &C::misses),
    derived("l1d.missRate", "miss rate", Mem, missRate<&M::l1>),
    cacheStat("l1d.evictions", "evictions", Mem, Sum, &M::l1, &C::evictions),
    cacheStat("l1d.dirtyEvictions", "dirty evictions", Mem, Sum, &M::l1,
              &C::dirtyEvictions),
    cacheStat("l2.hits", "hits", Mem, Shared, &M::l2, &C::hits),
    cacheStat("l2.misses", "misses", Mem, Shared, &M::l2, &C::misses),
    derived("l2.missRate", "miss rate", Mem, missRate<&M::l2>),
    cacheStat("l2.evictions", "evictions", Mem, Shared, &M::l2,
              &C::evictions),
    cacheStat("l2.dirtyEvictions", "dirty evictions", Mem, Shared, &M::l2,
              &C::dirtyEvictions),
    cacheStat("l3.hits", "hits", Mem, Shared, &M::l3, &C::hits),
    cacheStat("l3.misses", "misses", Mem, Shared, &M::l3, &C::misses),
    derived("l3.missRate", "miss rate", Mem, missRate<&M::l3>),
    cacheStat("l3.evictions", "evictions", Mem, Shared, &M::l3,
              &C::evictions),
    cacheStat("l3.dirtyEvictions", "dirty evictions", Mem, Shared, &M::l3,
              &C::dirtyEvictions),
    stat("dram.accesses", "lines moved to/from DRAM", Mem, Shared,
         &M::dramAccesses),
    stat("califorms.spills", "bitvector->sentinel conversions", Mem, Sum,
         &M::spills),
    stat("califorms.fills", "sentinel->bitvector conversions", Mem, Sum,
         &M::fills),
    stat("califorms.cformOps", "CFORM instructions executed", Mem, Sum,
         &M::cformOps),
    stat("califorms.securityFaults", "accesses that touched security bytes",
         Mem, Sum, &M::securityFaults),
    stat("califorms.fillConvCycles", "latency charged for fill conversions",
         Mem, Sum, &M::fillConvCycles),
    stat("califorms.spillConvCycles", "latency charged for spill conversions",
         Mem, Sum, &M::spillConvCycles),
    stat("wbq.hits", "L1 misses served from the write-back queue", Mem, Sum,
         &M::wbHits),
    stat("wbq.enqueued", "dirty evictions queued", Mem, Sum, &M::wbEnqueued),
    stat("wbq.forcedDrains", "write-backs that found the queue full", Mem,
         Sum, &M::wbForcedDrains),
    stat("wbq.peakOccupancy", "write-back queue high-water mark", Mem, Max,
         &M::wbPeakOccupancy),

    stat("mshr.allocations", "primary misses that took an MSHR entry", Mshr,
         Sum, &M::mshrAllocations),
    stat("mshr.coalesced", "secondary misses merged into a live entry", Mshr,
         Sum, &M::mshrCoalesced),
    stat("mshr.stallCycles", "cycles stalled with every MSHR live", Mshr, Sum,
         &M::mshrStallCycles),
    stat("mshr.peakOccupancy", "MSHR table high-water mark (max over cores)",
         Mshr, Max, &M::mshrPeakOccupancy),

    stat("dram.rowHits", "DRAM accesses that hit the open row", DramRow,
         Shared, &M::dramRowHits),
    stat("dram.rowMisses", "DRAM accesses to a bank with no open row",
         DramRow, Shared, &M::dramRowMisses),
    stat("dram.rowConflicts", "DRAM accesses that closed another row",
         DramRow, Shared, &M::dramRowConflicts),
    stat("dram.bankConflictCycles", "fill cycles queued behind busy banks",
         DramRow, Shared, &M::dramBankConflictCycles),

    cacheStat("repl.l1d.cformEvictions",
              "L1 evictions whose victim carried security bytes", Repl, Sum,
              &M::l1, &C::cformEvictions),
    cacheStat("repl.l2.cformEvictions",
              "L2 evictions whose victim carried security bytes", Repl,
              Shared, &M::l2, &C::cformEvictions),
    cacheStat("repl.l3.cformEvictions",
              "LLC evictions whose victim carried security bytes", Repl,
              Shared, &M::l3, &C::cformEvictions),
    derived("repl.cformVictimRate",
            "fraction of all evictions with califormed victims", Repl,
            cformVictimRate),

    stat("coherence.invalidations", "invalidation probes sent to remote L1s",
         Coherence, Shared, &M::invalidationsSent),
    stat("coherence.dirtyRecalls", "modified lines recalled from a remote L1",
         Coherence, Shared, &M::dirtyRecalls),
    stat("coherence.convUnderInval",
         "califormed lines encoded while surrendered", Coherence, Shared,
         &M::convUnderInval),
    stat("coherence.convCycles",
         "latency charged for conversions under coherence", Coherence, Shared,
         &M::coherenceConvCycles),
};

/** Per group: name (row prefix, `run` label) and JSON block. */
constexpr struct
{
    const char *name;
    const char *block;
} kGroups[] = {
    {"mem", "mem"},
    {"mshr", "memlp"},
    {"dram", "memlp"},
    {"repl", "repl"},
    {"coherence", "coherence"},
};
// clang-format on

/** One dump line. Values use the JSON number rule (integers exact);
 *  the column is 15 wide plus a space, so a long ratio still leaves a
 *  gap before the '#'. */
void
dumpLine(std::ostringstream &os, const char *name, double value,
         const char *doc)
{
    os << std::left << std::setw(34) << name << std::setw(15)
       << jsonNumber(value) << " # " << doc << "\n";
}

} // namespace

const std::uint64_t *
StatDef::counter(const MemSysStats &stats) const
{
    if (field)
        return &(stats.*field);
    if (levelField)
        return &(stats.*level.*levelField);
    return nullptr;
}

std::uint64_t *
StatDef::counter(MemSysStats &stats) const
{
    return const_cast<std::uint64_t *>(
        counter(static_cast<const MemSysStats &>(stats)));
}

double
StatDef::value(const MemSysStats &stats) const
{
    if (const std::uint64_t *c = counter(stats))
        return static_cast<double>(*c);
    return derive(stats);
}

std::span<const StatDef>
statTable()
{
    return kStats;
}

const char *
statGroupName(StatGroup group)
{
    return kGroups[static_cast<std::size_t>(group)].name;
}

const char *
statGroupBlock(StatGroup group)
{
    return kGroups[static_cast<std::size_t>(group)].block;
}

bool
statGroupEnabled(StatGroup group, const MachineParams &params)
{
    switch (group) {
    case Mem:
        return true;
    case Mshr:
        return params.mem.mshrEntries > 0;
    case DramRow:
        return params.mem.dramBanks > 0;
    case Repl:
        return replPolicyActive(params.mem);
    case Coherence:
        return params.core.count > 1;
    }
    return false;
}

void
mergeCoreStats(MemSysStats &into, const MemSysStats &core)
{
    for (const StatDef &s : kStats) {
        if (s.merge == Sum)
            *s.counter(into) += *s.counter(core);
        else if (s.merge == Max)
            *s.counter(into) = std::max(*s.counter(into), *s.counter(core));
    }
}

std::string
statBlocksJson(const MemSysStats &stats, const MachineParams &params)
{
    std::string out;
    std::string_view open;
    for (const StatDef &s : kStats) {
        if (!statGroupEnabled(s.group, params))
            continue;
        const std::string_view block = statGroupBlock(s.group);
        if (block != open) {
            out += open.empty() ? "" : "},\n     ";
            out += jsonString(std::string(block)) + ": {";
            open = block;
        } else {
            out += ", ";
        }
        out += jsonString(s.name) + ": " + jsonNumber(s.value(stats));
    }
    return out + "}";
}

std::string
statGroupLines(const MemSysStats &stats, const MachineParams &params)
{
    std::string out;
    const StatDef *prev = nullptr;
    for (const StatDef &s : kStats) {
        if (s.group == Mem || !statGroupEnabled(s.group, params))
            continue;
        const std::string group = statGroupName(s.group);
        if (!prev || prev->group != s.group)
            out += (prev ? "\n  " : "  ") + group + ":";
        out += " " + std::string(s.name + group.size() + 1) + "=" +
               jsonNumber(s.value(stats));
        prev = &s;
    }
    return prev ? out + "\n" : out;
}

std::string
dumpStats(const Machine &machine)
{
    std::ostringstream os;
    os << "---------- califorms stats ----------\n";
    dumpLine(os, "core.cycles", static_cast<double>(machine.cycles()),
             "simulated cycles (incl. bandwidth roofline)");
    dumpLine(os, "core.instructions",
             static_cast<double>(machine.instructions()), "retired micro-ops");
    const double ipc =
        machine.cycles()
            ? static_cast<double>(machine.instructions()) /
                  static_cast<double>(machine.cycles())
            : 0.0;
    dumpLine(os, "core.ipc", ipc, "instructions per cycle");
    const MemSysStats stats = machine.memStats();
    for (const StatDef &s : kStats)
        if (statGroupEnabled(s.group, machine.params()))
            dumpLine(os, s.name, s.value(stats), s.doc);
    dumpLine(os, "exceptions.delivered",
             static_cast<double>(machine.exceptions().deliveredCount()),
             "privileged exceptions delivered");
    dumpLine(os, "exceptions.suppressed",
             static_cast<double>(machine.exceptions().suppressedCount()),
             "exceptions suppressed by whitelist windows");
    os << "-------------------------------------\n";
    return os.str();
}

} // namespace califorms
