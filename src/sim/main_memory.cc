#include "sim/main_memory.hh"

#include <bit>
#include <limits>
#include <stdexcept>

namespace califorms
{

std::size_t
MainMemory::probe(Addr line_addr) const
{
    // Fibonacci hashing of the line number: the top bits of the
    // product spread strided and clustered footprints evenly.
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        ((line_addr >> lineShift) * 0x9e3779b97f4a7c15ull) >> hashShift_);
    while (slots_[i].key != line_addr && slots_[i].key != kEmpty)
        i = (i + 1) & mask;
    return i;
}

const SentinelLine *
MainMemory::find(Addr line_addr) const
{
    if (slots_.empty())
        return nullptr;
    const Slot &s = slots_[probe(line_addr)];
    if (s.key != line_addr)
        return nullptr;
    return &chunks_[s.index >> kChunkShift][s.index & (kChunkLines - 1)];
}

void
MainMemory::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
    hashShift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (const Slot &s : old)
        if (s.key != kEmpty)
            slots_[probe(s.key)] = s;
}

SentinelLine
MainMemory::readLine(Addr line_addr)
{
    if (lineOffset(line_addr) != 0)
        throw std::invalid_argument("MainMemory: unaligned line read");
    const SentinelLine *line = find(line_addr);
    return line ? *line : SentinelLine{};
}

SentinelLine
MainMemory::peekLine(Addr line_addr) const
{
    if (lineOffset(line_addr) != 0)
        throw std::invalid_argument("MainMemory: unaligned line peek");
    const SentinelLine *line = find(line_addr);
    return line ? *line : SentinelLine{};
}

void
MainMemory::writeLine(Addr line_addr, const SentinelLine &line)
{
    if (lineOffset(line_addr) != 0)
        throw std::invalid_argument("MainMemory: unaligned line write");
    if (slots_.empty())
        grow();
    std::size_t i = probe(line_addr);
    if (slots_[i].key == line_addr) {
        const std::uint32_t index = slots_[i].index;
        chunks_[index >> kChunkShift][index & (kChunkLines - 1)] = line;
        return;
    }
    if (count_ == std::numeric_limits<std::uint32_t>::max())
        throw std::length_error("MainMemory: line store full");
    if (4 * (count_ + 1) > 3 * slots_.size()) {
        grow();
        i = probe(line_addr);
    }
    if ((count_ & (kChunkLines - 1)) == 0) {
        // Reserved, not sized: a chunk's pages are touched only as
        // lines land in it.
        chunks_.emplace_back();
        chunks_.back().reserve(kChunkLines);
    }
    chunks_.back().push_back(line);
    slots_[i] = Slot{line_addr, static_cast<std::uint32_t>(count_)};
    ++count_;
}

std::size_t
MainMemory::califormedLines() const
{
    std::size_t n = 0;
    for (const auto &chunk : chunks_)
        for (const SentinelLine &line : chunk)
            if (line.califormed)
                ++n;
    return n;
}

} // namespace califorms
