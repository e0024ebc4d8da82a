/**
 * @file test_os.cc
 * OS layer tests: privileged exception delivery policies, nested
 * whitelist windows (Section 6.3), and page swap metadata handling
 * (8B of reserved kernel space per 4KB page, Section 3).
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/sentinel.hh"
#include "os/exception_unit.hh"
#include "os/swap.hh"
#include "sim/main_memory.hh"
#include "util/rng.hh"

namespace califorms
{
namespace
{

CaliformsException
loadFault(Addr addr)
{
    return CaliformsException{addr, AccessKind::Load,
                              FaultReason::LoadSecurityByte, 0};
}

TEST(ExceptionUnitTest, DeliversWhenUnmasked)
{
    ExceptionUnit unit;
    EXPECT_TRUE(unit.raise(loadFault(0x10)));
    ASSERT_EQ(unit.deliveredCount(), 1u);
    EXPECT_EQ(unit.delivered()[0].faultAddr, 0x10u);
    EXPECT_EQ(unit.suppressedCount(), 0u);
}

TEST(ExceptionUnitTest, MaskSuppresses)
{
    ExceptionUnit unit;
    unit.maskExceptions();
    EXPECT_FALSE(unit.raise(loadFault(0x20)));
    EXPECT_EQ(unit.deliveredCount(), 0u);
    EXPECT_EQ(unit.suppressedCount(), 1u);
    unit.unmaskExceptions();
    EXPECT_TRUE(unit.raise(loadFault(0x30)));
}

TEST(ExceptionUnitTest, NestedMasks)
{
    ExceptionUnit unit;
    unit.maskExceptions();
    unit.maskExceptions();
    unit.unmaskExceptions();
    EXPECT_TRUE(unit.masked()); // still one level deep
    EXPECT_FALSE(unit.raise(loadFault(0)));
    unit.unmaskExceptions();
    EXPECT_FALSE(unit.masked());
}

TEST(ExceptionUnitTest, UnbalancedUnmaskThrows)
{
    ExceptionUnit unit;
    EXPECT_THROW(unit.unmaskExceptions(), std::logic_error);
}

TEST(ExceptionUnitTest, TerminatePolicy)
{
    ExceptionUnit unit(ExceptionUnit::Policy::Terminate);
    EXPECT_FALSE(unit.terminated());
    unit.raise(loadFault(0));
    EXPECT_TRUE(unit.terminated());
}

TEST(ExceptionUnitTest, TerminatePolicyStillSuppressible)
{
    ExceptionUnit unit(ExceptionUnit::Policy::Terminate);
    WhitelistGuard guard(unit);
    unit.raise(loadFault(0));
    EXPECT_FALSE(unit.terminated());
}

TEST(ExceptionUnitTest, ClearLogs)
{
    ExceptionUnit unit;
    unit.raise(loadFault(1));
    unit.clearLogs();
    EXPECT_EQ(unit.deliveredCount(), 0u);
}

TEST(WhitelistGuardTest, RaiiBalances)
{
    ExceptionUnit unit;
    {
        WhitelistGuard a(unit);
        {
            WhitelistGuard b(unit);
            EXPECT_TRUE(unit.masked());
        }
        EXPECT_TRUE(unit.masked());
    }
    EXPECT_FALSE(unit.masked());
}

TEST(ExceptionDescribe, HumanReadable)
{
    const auto text = loadFault(0xabc).describe();
    EXPECT_NE(text.find("security byte"), std::string::npos);
    EXPECT_NE(text.find("abc"), std::string::npos);
}

// Page swap -------------------------------------------------------------

TEST(Swap, RoundTripPreservesDataAndMetadata)
{
    MainMemory memory;
    const Addr page = 0x10000;

    // Line 2 of the page is califormed with one security byte at
    // offset 9; line 5 holds plain data.
    BitVectorLine cal;
    cal.data[0] = 0x11;
    cal.mask = 1ull << 9;
    cal.canonicalize();
    memory.writeLine(page + 2 * lineBytes, spillLine(cal));

    SentinelLine plain;
    plain.raw[3] = 0x77;
    memory.writeLine(page + 5 * lineBytes, plain);

    SwapManager swap(memory);
    const std::uint64_t meta = swap.swapOut(page);
    EXPECT_EQ(meta, 1ull << 2); // only line 2 is califormed
    EXPECT_TRUE(swap.isSwappedOut(page));
    EXPECT_EQ(swap.metadataBytes(), 8u); // 8B per 4KB page (Section 6.3)

    // While swapped out, the frame reads as zero.
    EXPECT_FALSE(memory.readLine(page + 2 * lineBytes).califormed);

    swap.swapIn(page);
    EXPECT_FALSE(swap.isSwappedOut(page));
    const BitVectorLine back =
        fillLine(memory.readLine(page + 2 * lineBytes));
    EXPECT_EQ(back.mask, cal.mask);
    EXPECT_EQ(back.data, cal.data);
    EXPECT_EQ(memory.readLine(page + 5 * lineBytes).raw[3], 0x77);
}

TEST(Swap, RejectsUnalignedAndDoubleOps)
{
    MainMemory memory;
    SwapManager swap(memory);
    EXPECT_THROW(swap.swapOut(0x10001), std::invalid_argument);
    swap.swapOut(0x20000);
    EXPECT_THROW(swap.swapOut(0x20000), std::logic_error);
    EXPECT_THROW(swap.swapIn(0x30000), std::logic_error);
}

TEST(Swap, MetadataWordPacksAllLines)
{
    MainMemory memory;
    const Addr page = 0x40000;
    // Caliform every even line.
    for (std::size_t i = 0; i < linesPerPage; i += 2) {
        BitVectorLine line;
        line.mask = 1ull << 1;
        memory.writeLine(page + i * lineBytes, spillLine(line));
    }
    SwapManager swap(memory);
    const std::uint64_t meta = swap.swapOut(page);
    EXPECT_EQ(meta, 0x5555555555555555ull);
    swap.swapIn(page);
    for (std::size_t i = 0; i < linesPerPage; ++i) {
        EXPECT_EQ(memory.readLine(page + i * lineBytes).califormed,
                  i % 2 == 0);
    }
}

TEST(MainMemoryTest, DefaultLinesAreZeroClean)
{
    MainMemory memory;
    const SentinelLine line = memory.readLine(0x1234540);
    EXPECT_FALSE(line.califormed);
    for (unsigned i = 0; i < lineBytes; ++i)
        EXPECT_EQ(line.raw[i], 0);
}

TEST(MainMemoryTest, CountsBackedAndCaliformedLines)
{
    MainMemory memory;
    memory.writeLine(0, SentinelLine{});
    SentinelLine cal;
    cal.califormed = true;
    memory.writeLine(64, cal);
    EXPECT_EQ(memory.backedLines(), 2u);
    EXPECT_EQ(memory.califormedLines(), 1u);
}

TEST(MainMemoryTest, RejectsUnaligned)
{
    MainMemory memory;
    EXPECT_THROW(memory.readLine(1), std::invalid_argument);
    EXPECT_THROW(memory.writeLine(63, SentinelLine{}),
                 std::invalid_argument);
}

TEST(MainMemoryTest, MatchesUnorderedMapReferenceAcrossGrowths)
{
    // Random writes (fresh lines and overwrites) and reads (backed and
    // absent) against a plain std::unordered_map. ~10k distinct lines
    // spread over a 64 GB space plus one dense strided run push the key
    // table through several doublings.
    MainMemory memory;
    std::unordered_map<Addr, SentinelLine> want;
    std::vector<Addr> written;
    Rng rng(2024);
    EXPECT_EQ(memory.tableSlots(), 0u); // nothing allocated before a write

    auto random_line = [&rng] {
        SentinelLine line;
        const std::uint64_t word = rng.next();
        for (unsigned i = 0; i < 8; ++i)
            line.raw[i * 7] = static_cast<std::uint8_t>(word >> (8 * i));
        line.califormed = rng.chance(0.25);
        return line;
    };
    auto expect_same = [&](Addr la) {
        const auto it = want.find(la);
        const SentinelLine expect =
            it == want.end() ? SentinelLine{} : it->second;
        EXPECT_EQ(memory.readLine(la), expect) << std::hex << la;
        EXPECT_EQ(memory.peekLine(la), expect) << std::hex << la;
    };

    unsigned growths = 0;
    std::size_t slots = 0;
    for (int step = 0; step < 60000; ++step) {
        const std::uint64_t roll = rng.nextBelow(10);
        Addr la;
        if (roll < 4 && !written.empty()) // overwrite a backed line
            la = written[rng.nextBelow(written.size())];
        else if (roll < 6)
            la = 0x4000'0000 + lineBytes * (step % 4096); // strided run
        else
            la = lineBytes * rng.nextBelow(std::uint64_t{1} << 30);
        if (roll < 7) {
            const SentinelLine line = random_line();
            if (want.find(la) == want.end())
                written.push_back(la);
            want[la] = line;
            memory.writeLine(la, line);
        } else {
            expect_same(la);
            // A read never backs a line.
            EXPECT_EQ(memory.backedLines(), want.size());
        }
        if (memory.tableSlots() != slots) {
            if (slots) {
                EXPECT_EQ(memory.tableSlots(), 2 * slots);
                ++growths;
            }
            slots = memory.tableSlots();
        }
        EXPECT_LE(4 * memory.backedLines(), 3 * memory.tableSlots());
    }
    EXPECT_GE(growths, 3u);
    EXPECT_GT(want.size(), 9000u);

    EXPECT_EQ(memory.backedLines(), want.size());
    std::size_t califormed = 0;
    for (const auto &[la, line] : want) {
        expect_same(la);
        califormed += line.califormed;
    }
    EXPECT_EQ(memory.califormedLines(), califormed);
    // Never-written lines next to written ones read as zero.
    for (int i = 0; i < 1000; ++i) {
        const Addr la = lineBytes * rng.nextBelow(std::uint64_t{1} << 40);
        if (want.find(la) == want.end()) {
            EXPECT_EQ(memory.readLine(la), SentinelLine{});
        }
    }

    // Alignment is checked on every path, populated table or not.
    EXPECT_THROW(memory.readLine(written[0] + 8), std::invalid_argument);
    EXPECT_THROW(memory.peekLine(written[0] + 1), std::invalid_argument);
    EXPECT_THROW(memory.writeLine(written[0] + 63, SentinelLine{}),
                 std::invalid_argument);
    EXPECT_EQ(memory.backedLines(), want.size());
}

} // namespace
} // namespace califorms
