/**
 * @file cache_array.hh
 * A generic set-associative cache array parameterized on the stored
 * line payload. The L1 data cache stores BitVectorLine payloads
 * (califorms-bitvector); L2 and L3 store SentinelLine payloads
 * (califorms-sentinel). Timing lives in the hierarchy (memsys.hh);
 * this class is purely the tag/data array.
 *
 * Layout: tags, dirty bits and payloads live in three parallel arrays
 * indexed set * ways + way. An empty way holds an invalid-tag sentinel
 * instead of a valid bit, so a lookup (and insert's find-or-free-way
 * search, one scan per insert) reads only the set's contiguous tags —
 * 128 bytes for a 16-way set — and never strides over payloads.
 * Payloads are touched only when a hit returns one, on a fill, and on
 * an eviction.
 *
 * Victim selection is delegated to a pluggable ReplacementPolicy
 * (sim/repl/policy.hh): the array owns tags, payloads, and dirty bits;
 * the policy owns all recency/prediction state and is driven through
 * onHit / onMiss / onInsert / victimWay / onInvalidate hooks that
 * carry positions (and, for onInsert, the incoming line address) but
 * no payload. The default Lru policy reproduces the historical
 * hardwired true-LRU byte for byte. Evictions of califormed lines are
 * counted in CacheStats::cformEvictions from the evicted payload, so
 * the policy laboratory can measure whether scan-resistant policies
 * preferentially evict sentinel-carrying lines.
 */

#ifndef CALIFORMS_SIM_CACHE_ARRAY_HH
#define CALIFORMS_SIM_CACHE_ARRAY_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/repl/policy.hh"
#include "util/types.hh"

namespace califorms
{

/** Hit/miss/eviction counters for one cache level. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    /** Evictions whose victim payload carried blacklisted bytes. */
    std::uint64_t cformEvictions = 0;

    double
    missRate() const
    {
        const auto total = hits + misses;
        return total ? static_cast<double>(misses) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Whether @p line carries blacklisted bytes, for any payload shape:
 *  BitVectorLine exposes califormed() (mask != 0), SentinelLine a bool
 *  member; payloads with neither (the unit tests' int lines) are never
 *  califormed. */
template <typename LineT>
inline bool
lineCaliformed(const LineT &line)
{
    if constexpr (requires { static_cast<bool>(line.califormed()); })
        return static_cast<bool>(line.califormed());
    else if constexpr (requires { static_cast<bool>(line.califormed); })
        return static_cast<bool>(line.califormed);
    else
        return false;
}

template <typename LineT>
class CacheArray
{
  public:
    /** A line pushed out by insert(). */
    struct Evicted
    {
        bool valid = false;
        bool dirty = false;
        Addr lineAddr = 0;
        LineT line{};
    };

    CacheArray(std::size_t size_bytes, unsigned ways,
               ReplPolicy policy = ReplPolicy::Lru)
        : ways_(ways),
          sets_(ways ? size_bytes / (lineBytes * ways) : 0)
    {
        if (ways == 0 || sets_ == 0 ||
            size_bytes % (lineBytes * ways) != 0) {
            throw std::invalid_argument("CacheArray: bad geometry");
        }
        tags_.assign(sets_ * ways_, kNoLine);
        dirty_.assign(sets_ * ways_, 0);
        lines_.resize(sets_ * ways_);
        repl_ = repl::makePolicy(policy, sets_, ways_);
    }

    /** Look up @p line_addr; on a hit return the payload (policy
     *  notified) and optionally mark it dirty. Null on miss. Counts
     *  stats. */
    LineT *
    access(Addr line_addr, bool make_dirty)
    {
        const std::size_t set = setIndex(line_addr);
        const unsigned way = findWay(set, line_addr);
        if (way == ways_) {
            ++stats_.misses;
            repl_->onMiss(set);
            return nullptr;
        }
        ++stats_.hits;
        const std::size_t i = set * ways_ + way;
        dirty_[i] |= make_dirty;
        repl_->onHit(set, way);
        return &lines_[i];
    }

    /** Look up without touching stats or policy state (functional
     *  peeks). */
    LineT *
    peek(Addr line_addr)
    {
        const std::size_t i = indexOf(line_addr);
        return i != kAbsent ? &lines_[i] : nullptr;
    }

    const LineT *
    peek(Addr line_addr) const
    {
        const std::size_t i = indexOf(line_addr);
        return i != kAbsent ? &lines_[i] : nullptr;
    }

    /** Insert a line, evicting the policy's victim if the set is full.
     *  An existing copy of the same line is overwritten in place with
     *  the dirty bits merged; the overwrite counts as a reference
     *  (onHit), so an upgrade-write refreshes recency under every
     *  policy. When @p filled is non-null it receives the slot now
     *  holding the line, valid while the line stays resident. */
    Evicted
    insert(Addr line_addr, LineT line, bool dirty, LineT **filled = nullptr)
    {
        const std::size_t set = setIndex(line_addr);
        const std::size_t base = set * ways_;
        unsigned way = ways_;
        unsigned free_way = ways_;
        for (unsigned w = 0; w < ways_; ++w) {
            const Addr tag = tags_[base + w];
            if (tag == line_addr) {
                way = w;
                break;
            }
            if (tag == kNoLine && free_way == ways_)
                free_way = w;
        }

        Evicted out;
        if (way != ways_) {
            const std::size_t i = base + way;
            dirty_[i] |= dirty;
            lines_[i] = std::move(line);
            repl_->onHit(set, way);
            if (filled)
                *filled = &lines_[i];
            return out;
        }

        way = free_way;
        if (way == ways_) {
            way = repl_->victimWay(set);
            if (way >= ways_)
                throw std::logic_error(
                    "ReplacementPolicy: victim way out of range");
            const std::size_t i = base + way;
            out.valid = true;
            out.dirty = dirty_[i];
            out.lineAddr = tags_[i];
            out.line = std::move(lines_[i]);
            ++stats_.evictions;
            if (out.dirty)
                ++stats_.dirtyEvictions;
            if (lineCaliformed(out.line))
                ++stats_.cformEvictions;
        }
        const std::size_t i = base + way;
        tags_[i] = line_addr;
        dirty_[i] = dirty;
        lines_[i] = std::move(line);
        repl_->onInsert(set, way, line_addr);
        if (filled)
            *filled = &lines_[i];
        return out;
    }

    /** Set the dirty bit of a resident line (no stats/policy effect). */
    void
    markDirty(Addr line_addr)
    {
        const std::size_t i = indexOf(line_addr);
        if (i != kAbsent)
            dirty_[i] = true;
    }

    /** Clear the dirty bit of a resident line (coherence downgrade:
     *  the owner keeps a now-clean copy after its data was recalled). */
    void
    markClean(Addr line_addr)
    {
        const std::size_t i = indexOf(line_addr);
        if (i != kAbsent)
            dirty_[i] = false;
    }

    /** Dirty bit of a resident line (false when absent). */
    bool
    dirtyAt(Addr line_addr) const
    {
        const std::size_t i = indexOf(line_addr);
        return i != kAbsent && dirty_[i];
    }

    /** Remove @p line_addr if present; returns true and fills the outs. */
    bool
    extract(Addr line_addr, LineT &line_out, bool &dirty_out)
    {
        const std::size_t set = setIndex(line_addr);
        const unsigned way = findWay(set, line_addr);
        if (way == ways_)
            return false;
        const std::size_t i = set * ways_ + way;
        line_out = std::move(lines_[i]);
        dirty_out = dirty_[i];
        tags_[i] = kNoLine;
        dirty_[i] = false;
        repl_->onInvalidate(set, way);
        return true;
    }

    /** Visit every valid line (used by flush), set by set, ways in
     *  ascending order. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (std::size_t i = 0; i < tags_.size(); ++i)
            if (tags_[i] != kNoLine)
                fn(tags_[i], lines_[i], static_cast<bool>(dirty_[i]));
    }

    /** Drop everything without write-back (only safe after a flush). */
    void
    reset()
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kNoLine)
                repl_->onInvalidate(i / ways_,
                                    static_cast<unsigned>(i % ways_));
            tags_[i] = kNoLine;
            dirty_[i] = false;
        }
    }

    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }
    std::size_t sets() const { return sets_; }
    unsigned ways() const { return ways_; }

  private:
    /** Tag of an empty way. Line addresses are line-aligned, so the
     *  all-ones address never names a line. */
    static constexpr Addr kNoLine = ~Addr{0};
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    std::size_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::size_t>((line_addr >> lineShift) % sets_);
    }

    /** Way of @p set holding @p line_addr, or ways_ when absent. Reads
     *  only the tag array. */
    unsigned
    findWay(std::size_t set, Addr line_addr) const
    {
        const Addr *tags = tags_.data() + set * ways_;
        for (unsigned w = 0; w < ways_; ++w)
            if (tags[w] == line_addr)
                return w;
        return ways_;
    }

    /** Flat index of @p line_addr's slot, or kAbsent. */
    std::size_t
    indexOf(Addr line_addr) const
    {
        const std::size_t set = setIndex(line_addr);
        const unsigned way = findWay(set, line_addr);
        return way == ways_ ? kAbsent : set * ways_ + way;
    }

    unsigned ways_;
    std::size_t sets_;
    /** Per-slot arrays indexed set * ways_ + way; a set's tags are
     *  contiguous, so a lookup reads ways_ * 8 bytes and no payload. */
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> dirty_;
    std::vector<LineT> lines_;
    std::unique_ptr<repl::ReplacementPolicy> repl_;
    CacheStats stats_;
};

} // namespace califorms

#endif // CALIFORMS_SIM_CACHE_ARRAY_HH
