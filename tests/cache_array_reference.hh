/**
 * @file cache_array_reference.hh
 * The array-of-structs set-associative array (one Entry per way
 * holding valid, dirty, tag and payload together), kept as the
 * reference the differential tests compare CacheArray's split
 * tag/dirty/payload layout against. It drives the same replacement
 * policies through the same hooks at the same points, so any
 * divergence in hits, victims, payloads, stats or visit order is a
 * layout bug in CacheArray.
 */

#ifndef CALIFORMS_TESTS_CACHE_ARRAY_REFERENCE_HH
#define CALIFORMS_TESTS_CACHE_ARRAY_REFERENCE_HH

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/cache_array.hh"
#include "sim/repl/policy.hh"

namespace califorms::test
{

template <typename LineT>
class ReferenceCacheArray
{
  public:
    struct Evicted
    {
        bool valid = false;
        bool dirty = false;
        Addr lineAddr = 0;
        LineT line{};
    };

    ReferenceCacheArray(std::size_t size_bytes, unsigned ways,
                        ReplPolicy policy = ReplPolicy::Lru)
        : ways_(ways),
          sets_(ways ? size_bytes / (lineBytes * ways) : 0)
    {
        if (ways == 0 || sets_ == 0 ||
            size_bytes % (lineBytes * ways) != 0) {
            throw std::invalid_argument("CacheArray: bad geometry");
        }
        entries_.resize(sets_ * ways_);
        repl_ = repl::makePolicy(policy, sets_, ways_);
    }

    LineT *
    access(Addr line_addr, bool make_dirty)
    {
        Entry *e = lookup(line_addr);
        if (!e) {
            ++stats_.misses;
            repl_->onMiss(setIndex(line_addr));
            return nullptr;
        }
        ++stats_.hits;
        e->dirty = e->dirty || make_dirty;
        repl_->onHit(setIndex(line_addr), wayOf(e));
        return &e->line;
    }

    LineT *
    peek(Addr line_addr)
    {
        Entry *e = lookup(line_addr);
        return e ? &e->line : nullptr;
    }

    Evicted
    insert(Addr line_addr, LineT line, bool dirty)
    {
        const std::size_t set = setIndex(line_addr);
        Entry *match = nullptr;
        Entry *invalid = nullptr;
        for (unsigned w = 0; w < ways_; ++w) {
            Entry &e = entries_[set * ways_ + w];
            if (e.valid && e.lineAddr == line_addr) {
                match = &e;
                break;
            }
            if (!e.valid && !invalid)
                invalid = &e;
        }

        Evicted out;
        if (match) {
            match->dirty = match->dirty || dirty;
            match->line = std::move(line);
            repl_->onHit(set, wayOf(match));
            return out;
        }

        Entry *slot = invalid;
        if (!slot) {
            const unsigned victim = repl_->victimWay(set);
            if (victim >= ways_)
                throw std::logic_error(
                    "ReplacementPolicy: victim way out of range");
            slot = &entries_[set * ways_ + victim];
            out.valid = true;
            out.dirty = slot->dirty;
            out.lineAddr = slot->lineAddr;
            out.line = std::move(slot->line);
            ++stats_.evictions;
            if (slot->dirty)
                ++stats_.dirtyEvictions;
            if (lineCaliformed(out.line))
                ++stats_.cformEvictions;
        }
        slot->valid = true;
        slot->dirty = dirty;
        slot->lineAddr = line_addr;
        slot->line = std::move(line);
        repl_->onInsert(set, wayOf(slot), line_addr);
        return out;
    }

    void
    markDirty(Addr line_addr)
    {
        if (Entry *e = lookup(line_addr))
            e->dirty = true;
    }

    void
    markClean(Addr line_addr)
    {
        if (Entry *e = lookup(line_addr))
            e->dirty = false;
    }

    bool
    dirtyAt(Addr line_addr)
    {
        const Entry *e = lookup(line_addr);
        return e && e->dirty;
    }

    bool
    extract(Addr line_addr, LineT &line_out, bool &dirty_out)
    {
        Entry *e = lookup(line_addr);
        if (!e)
            return false;
        line_out = std::move(e->line);
        dirty_out = e->dirty;
        e->valid = false;
        e->dirty = false;
        repl_->onInvalidate(setIndex(line_addr), wayOf(e));
        return true;
    }

    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (auto &e : entries_)
            if (e.valid)
                fn(e.lineAddr, e.line, e.dirty);
    }

    void
    reset()
    {
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            Entry &e = entries_[i];
            if (e.valid)
                repl_->onInvalidate(i / ways_,
                                    static_cast<unsigned>(i % ways_));
            e.valid = false;
            e.dirty = false;
        }
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        bool valid = false;
        bool dirty = false;
        Addr lineAddr = 0;
        LineT line{};
    };

    std::size_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::size_t>((line_addr >> lineShift) % sets_);
    }

    Entry *
    lookup(Addr line_addr)
    {
        const std::size_t set = setIndex(line_addr);
        for (unsigned w = 0; w < ways_; ++w) {
            Entry &e = entries_[set * ways_ + w];
            if (e.valid && e.lineAddr == line_addr)
                return &e;
        }
        return nullptr;
    }

    unsigned
    wayOf(const Entry *e) const
    {
        return static_cast<unsigned>(
            static_cast<std::size_t>(e - entries_.data()) % ways_);
    }

    unsigned ways_;
    std::size_t sets_;
    std::vector<Entry> entries_;
    std::unique_ptr<repl::ReplacementPolicy> repl_;
    CacheStats stats_;
};

} // namespace califorms::test

#endif // CALIFORMS_TESTS_CACHE_ARRAY_REFERENCE_HH
