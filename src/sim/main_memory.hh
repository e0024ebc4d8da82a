/**
 * @file main_memory.hh
 * DRAM backing store. Lines are stored in the sentinel (califormed)
 * format; the one metadata bit per line models the spare ECC bit the
 * paper repurposes (Section 3), so data never grows and the DIMM
 * interface is unchanged. Untouched lines read as zero.
 *
 * Only written lines are backed. An open-addressing key table (linear
 * probing, power-of-two slot count, load kept at or below 3/4, first
 * allocated by the first write) maps a line address to its index in a
 * dense line store made of fixed-size chunks, so growing the table
 * rehashes 16-byte keys and never copies or moves a payload. Lines are
 * never removed. DRAM traffic is counted by the shared side
 * (SharedMemory::dramAccesses), not here.
 */

#ifndef CALIFORMS_SIM_MAIN_MEMORY_HH
#define CALIFORMS_SIM_MAIN_MEMORY_HH

#include <cstdint>
#include <vector>

#include "core/line.hh"
#include "os/swap.hh"

namespace califorms
{

class MainMemory : public LineStore
{
  public:
    /** Read the line at @p line_addr (zero/clean if never written). */
    SentinelLine readLine(Addr line_addr) override;

    /** The same lookup for functional (untimed) inspection paths that
     *  hold a const memory. */
    SentinelLine peekLine(Addr line_addr) const;

    /** Write a full line including its ECC califormed bit. */
    void writeLine(Addr line_addr, const SentinelLine &line) override;

    /** Number of lines currently backed (for memory footprint stats). */
    std::size_t backedLines() const { return count_; }

    /** Number of backed lines whose califormed (ECC) bit is set. */
    std::size_t califormedLines() const;

    /** Slots in the key table: 0 before the first write, then a power
     *  of two at least 4/3 of backedLines(). */
    std::size_t tableSlots() const { return slots_.size(); }

  private:
    /** Key of an unused slot; writes are line-aligned, so the all-ones
     *  address never names a line. */
    static constexpr Addr kEmpty = ~Addr{0};
    static constexpr std::size_t kInitialSlots = 1024;
    static constexpr unsigned kChunkShift = 12; //!< 4096 lines a chunk
    static constexpr std::size_t kChunkLines = std::size_t{1} << kChunkShift;

    struct Slot
    {
        Addr key = kEmpty;
        std::uint32_t index = 0; //!< position in the line store
    };

    /** Slot holding @p line_addr, or the empty slot ending its probe
     *  run. The table must be allocated. */
    std::size_t probe(Addr line_addr) const;

    /** Backed line at @p line_addr, or null. */
    const SentinelLine *find(Addr line_addr) const;

    /** Double the key table (or allocate it) and rehash the keys. */
    void grow();

    std::vector<Slot> slots_;
    unsigned hashShift_ = 0; //!< 64 - log2(slots_.size())
    std::vector<std::vector<SentinelLine>> chunks_;
    std::size_t count_ = 0;
};

} // namespace califorms

#endif // CALIFORMS_SIM_MAIN_MEMORY_HH
