/**
 * @file swap.hh
 * Page swap support (Sections 3 and 6.3).
 *
 * Califormed lines keep their one metadata bit in spare DRAM ECC bits, so
 * nothing leaves the memory controller in the common case. When a page is
 * swapped out, the ECC bits are not part of the page payload; the page
 * fault handler gathers the 64 per-line bits (8B per 4KB page) into a
 * reserved kernel store and restores them on swap in.
 */

#ifndef CALIFORMS_OS_SWAP_HH
#define CALIFORMS_OS_SWAP_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/line.hh"

namespace califorms
{

/**
 * Minimal interface the swap manager needs from main memory: read and
 * write whole lines including their califormed (ECC) bit.
 */
class LineStore
{
  public:
    virtual ~LineStore() = default;
    virtual SentinelLine readLine(Addr line_addr) = 0;
    virtual void writeLine(Addr line_addr, const SentinelLine &line) = 0;
};

/**
 * Kernel-side swap handler. Swapped-out pages live in a simulated disk
 * (data payload only, as real swap devices store no ECC) plus the
 * reserved metadata table.
 */
class SwapManager
{
  public:
    explicit SwapManager(LineStore &memory) : memory_(memory) {}

    /** Swap out the page at @p page_base; returns the 64-bit metadata
     *  word stored in the kernel table (bit i = line i califormed). */
    std::uint64_t swapOut(Addr page_base);

    /** Swap the page back in, restoring data and metadata bits. */
    void swapIn(Addr page_base);

    bool isSwappedOut(Addr page_base) const;

    /** Bytes of kernel metadata currently held (8B per page). */
    std::size_t metadataBytes() const { return 8 * disk_.size(); }

  private:
    struct SwappedPage
    {
        std::vector<LineData> payload;  //!< data only, no ECC bit
        std::uint64_t metadata = 0;     //!< reserved-space metadata word
    };

    LineStore &memory_;
    std::unordered_map<Addr, SwappedPage> disk_;
};

} // namespace califorms

#endif // CALIFORMS_OS_SWAP_HH
