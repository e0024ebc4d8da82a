/**
 * @file stats_dump.hh
 * The stat table: every memory-system counter defined once — its
 * name, doc, the MemSysStats field it reads (or how it is derived),
 * how it merges across cores, and its group. Each group has one gate
 * predicate over the machine configuration. Every emitter renders
 * from the table: the flat dump below, the "mem"/"coherence"/"memlp"/
 * "repl" blocks of the campaign and fleet JSON reports, the group
 * lines of `califorms run`, and the per-core merge in
 * Machine::memStats. A JSON trajectory therefore diffs against a text
 * stats dump key for key.
 */

#ifndef CALIFORMS_SIM_STATS_DUMP_HH
#define CALIFORMS_SIM_STATS_DUMP_HH

#include <cstdint>
#include <span>
#include <string>

#include "sim/memsys.hh"
#include "sim/params.hh"

namespace califorms
{

class Machine;

/** Stat groups in emission order. Only Mem is always on; the others
 *  exist only on machines that can exercise them (statGroupEnabled),
 *  so default outputs carry none of them. */
enum class StatGroup
{
    Mem,       //!< caches, DRAM traffic, conversions, write-back queue
    Mshr,      //!< mshr.*: the non-blocking miss model
    DramRow,   //!< dram.row*: the banked DRAM row-buffer model
    Repl,      //!< repl.*: a non-default replacement policy somewhere
    Coherence, //!< coherence.*: multi-core machines
};

/** How a stat combines the per-core private sides into the machine
 *  total. */
enum class StatMerge
{
    Sum,
    Max,     //!< a high-water mark: the fullest any one core got
    Shared,  //!< counted once by the shared side; zero per core
    Derived, //!< computed from the merged counters
};

/** One row of the stat table. A row reads a top-level MemSysStats
 *  field, a per-level CacheStats field, or is derived. */
struct StatDef
{
    const char *name;
    const char *doc;
    StatGroup group;
    StatMerge merge;
    std::uint64_t MemSysStats::*field = nullptr;
    CacheStats MemSysStats::*level = nullptr;
    std::uint64_t CacheStats::*levelField = nullptr;
    double (*derive)(const MemSysStats &) = nullptr;

    /** The counter this row reads; null for a Derived row. */
    const std::uint64_t *counter(const MemSysStats &stats) const;
    std::uint64_t *counter(MemSysStats &stats) const;
    double value(const MemSysStats &stats) const;
};

/** Every row, in emission order (grouped by StatGroup). */
std::span<const StatDef> statTable();

/** The group's name: the `run` line label and, for every group but
 *  Mem, its rows' name prefix. */
const char *statGroupName(StatGroup group);

/** The JSON report block the group renders into (Mshr and DramRow
 *  share "memlp"). */
const char *statGroupBlock(StatGroup group);

/** The one gate predicate per group. */
bool statGroupEnabled(StatGroup group, const MachineParams &params);

/** Fold one core's private-side counters into @p into, row by row
 *  (Sum and Max rows; Shared and Derived rows are left alone). */
void mergeCoreStats(MemSysStats &into, const MemSysStats &core);

/** The enabled groups as JSON report members — `"mem": {...}`, then
 *  one `,\n     "<block>": {...}` per further enabled block. */
std::string statBlocksJson(const MemSysStats &stats,
                           const MachineParams &params);

/** The enabled groups other than Mem as `run` report lines:
 *  "  <group>: <name minus group prefix>=<value> ...\n". */
std::string statGroupLines(const MemSysStats &stats,
                           const MachineParams &params);

/** Render all machine statistics in a flat, diffable format: one
 *  "name value # doc" line per enabled row, bracketed by the core
 *  and exception counters. */
std::string dumpStats(const Machine &machine);

} // namespace califorms

#endif // CALIFORMS_SIM_STATS_DUMP_HH
