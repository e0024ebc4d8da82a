/**
 * @file test_cform.cc
 * Exhaustive tests of the CFORM instruction semantics against the
 * Table 1 K-map, plus atomicity and the canonical zeroing contract,
 * and a seeded differential test of the word-parallel kernels against
 * the per-byte reference in cform_reference.hh.
 */

#include <gtest/gtest.h>

#include <set>

#include "cform_reference.hh"
#include "core/cform.hh"
#include "util/rng.hh"

namespace califorms
{
namespace
{

TEST(CformKmap, MaskedBytesNeverChange)
{
    // Column "X, Don't care": regardless of R2, a masked-off byte keeps
    // its state.
    for (bool initially_security : {false, true}) {
        for (bool set_bit : {false, true}) {
            BitVectorLine line;
            line.data[5] = 0;
            if (initially_security)
                line.mask = 1ull << 5;
            CformOp op;
            op.lineAddr = 0;
            op.setBits = set_bit ? (1ull << 5) : 0;
            op.mask = 0; // disallow everything
            EXPECT_EQ(applyCform(line, op), std::nullopt);
            EXPECT_EQ(line.isSecurityByte(5), initially_security);
        }
    }
}

TEST(CformKmap, SetOnRegularMakesSecurity)
{
    BitVectorLine line;
    line.data[9] = 0xAB;
    CformOp op = makeSetOp(0, 1ull << 9);
    EXPECT_EQ(applyCform(line, op), std::nullopt);
    EXPECT_TRUE(line.isSecurityByte(9));
    // Hardware zeroes the byte: loads of security bytes return zero.
    EXPECT_EQ(line.data[9], 0);
}

TEST(CformKmap, UnsetOnSecurityMakesRegular)
{
    BitVectorLine line;
    line.mask = 1ull << 3;
    CformOp op = makeUnsetOp(0, 1ull << 3);
    EXPECT_EQ(applyCform(line, op), std::nullopt);
    EXPECT_FALSE(line.isSecurityByte(3));
    EXPECT_EQ(line.data[3], 0);
}

TEST(CformKmap, SetOnSecurityRaisesException)
{
    BitVectorLine line;
    line.mask = 1ull << 7;
    CformOp op = makeSetOp(0x1000, 1ull << 7);
    const auto fault = applyCform(line, op);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->reason, FaultReason::CformSetOnSecurity);
    EXPECT_EQ(fault->faultAddr, 0x1000u + 7);
    EXPECT_EQ(fault->kind, AccessKind::Cform);
}

TEST(CformKmap, UnsetOnRegularRaisesException)
{
    BitVectorLine line;
    CformOp op = makeUnsetOp(0x2000, 1ull << 12);
    const auto fault = applyCform(line, op);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->reason, FaultReason::CformUnsetRegular);
    EXPECT_EQ(fault->faultAddr, 0x2000u + 12);
}

TEST(CformKmap, ExhaustivePerByteTruthTable)
{
    // All 8 combinations of (initial state, set bit, mask bit) on every
    // byte position.
    for (unsigned pos = 0; pos < lineBytes; ++pos) {
        for (int initial = 0; initial < 2; ++initial) {
            for (int set = 0; set < 2; ++set) {
                for (int allow = 0; allow < 2; ++allow) {
                    BitVectorLine line;
                    if (initial)
                        line.mask = 1ull << pos;
                    CformOp op;
                    op.setBits = set ? (1ull << pos) : 0;
                    op.mask = allow ? (1ull << pos) : 0;
                    const auto fault = applyCform(line, op);

                    const bool expect_fault =
                        allow && ((set && initial) || (!set && !initial));
                    EXPECT_EQ(fault.has_value(), expect_fault)
                        << "pos=" << pos << " init=" << initial
                        << " set=" << set << " allow=" << allow;
                    const bool expect_security =
                        expect_fault ? initial : (allow ? set : initial);
                    EXPECT_EQ(line.isSecurityByte(pos),
                              expect_security != 0);
                }
            }
        }
    }
}

TEST(Cform, AtomicOnFault)
{
    // Byte 0 transition is legal, byte 1 faults: the line must be left
    // completely unmodified.
    BitVectorLine line;
    line.mask = 1ull << 1;
    line.data[0] = 0x42;
    CformOp op;
    op.setBits = (1ull << 0) | (1ull << 1); // set both
    op.mask = (1ull << 0) | (1ull << 1);
    const auto fault = applyCform(line, op);
    ASSERT_TRUE(fault.has_value());
    EXPECT_FALSE(line.isSecurityByte(0));
    EXPECT_EQ(line.data[0], 0x42);
    EXPECT_TRUE(line.isSecurityByte(1));
}

TEST(Cform, ReportsLowestFaultingAddress)
{
    BitVectorLine line;
    line.mask = (1ull << 20) | (1ull << 40);
    CformOp op = makeSetOp(0, (1ull << 20) | (1ull << 40));
    const auto fault = checkCform(line, op);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->faultAddr, 20u);
}

TEST(Cform, MixedSetAndUnsetInOneInstruction)
{
    // Partial update: set byte 2, unset byte 6, leave the rest alone.
    BitVectorLine line;
    line.mask = 1ull << 6;
    CformOp op;
    op.setBits = 1ull << 2;
    op.mask = (1ull << 2) | (1ull << 6);
    EXPECT_EQ(applyCform(line, op), std::nullopt);
    EXPECT_TRUE(line.isSecurityByte(2));
    EXPECT_FALSE(line.isSecurityByte(6));
}

TEST(Cform, FullLineBlacklist)
{
    BitVectorLine line;
    for (unsigned i = 0; i < lineBytes; ++i)
        line.data[i] = static_cast<std::uint8_t>(i + 1);
    CformOp op = makeSetOp(0, ~0ull);
    EXPECT_EQ(applyCform(line, op), std::nullopt);
    EXPECT_EQ(line.mask, ~0ull);
    EXPECT_TRUE(line.canonical());
}

TEST(Cform, RejectsUnalignedAddress)
{
    BitVectorLine line;
    CformOp op = makeSetOp(7, 1);
    EXPECT_THROW(applyCform(line, op), std::invalid_argument);
}

TEST(CformHelpers, MakeOpsTargetExactMask)
{
    const SecurityMask m = 0x00f0000000000001ull;
    const CformOp set = makeSetOp(0x40, m);
    EXPECT_EQ(set.setBits, m);
    EXPECT_EQ(set.mask, m);
    const CformOp unset = makeUnsetOp(0x40, m);
    EXPECT_EQ(unset.setBits, 0u);
    EXPECT_EQ(unset.mask, m);
}

// ---- Differential: word-parallel kernels vs. the per-byte reference --

/** A 64-bit byte mask drawn so the extremes (no byte, every byte, one
 *  byte) turn up as often as dense and sparse random masks. */
std::uint64_t
randomByteMask(Rng &rng)
{
    switch (rng.nextBelow(6)) {
    case 0:
        return 0;
    case 1:
        return ~0ull;
    case 2:
        return 1ull << rng.nextBelow(lineBytes);
    case 3:
        return rng.next() & rng.next() & rng.next(); // sparse
    default:
        return rng.next();
    }
}

BitVectorLine
randomLine(Rng &rng)
{
    BitVectorLine line;
    for (auto &b : line.data.bytes)
        b = static_cast<std::uint8_t>(rng.next());
    line.mask = randomByteMask(rng);
    if (rng.chance(0.5))
        test::referenceCanonicalize(line);
    return line;
}

/** An op on @p line: legal on every selected byte, then with a few
 *  selected bytes flipped to an illegal transition (either reason,
 *  anywhere in the line) on most draws. R2 bits outside R3 are random
 *  so the "Don't Care" column is exercised too. */
CformOp
randomOp(Rng &rng, const BitVectorLine &line)
{
    CformOp op;
    op.lineAddr = rng.nextBelow(1u << 20) * lineBytes;
    op.mask = randomByteMask(rng);
    op.setBits = (~line.mask & op.mask) | (rng.next() & ~op.mask);
    const unsigned faults = static_cast<unsigned>(rng.nextBelow(4));
    for (unsigned f = 0; f < faults; ++f) {
        const unsigned i = static_cast<unsigned>(rng.nextBelow(lineBytes));
        op.mask |= 1ull << i;
        op.setBits = (op.setBits & ~(1ull << i)) |
                     (line.mask & (1ull << i)); // R2 == state: illegal
    }
    return op;
}

void
expectSameFault(const std::optional<CaliformsException> &got,
                const std::optional<CaliformsException> &want,
                std::uint64_t iter)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << "iter " << iter;
    if (!want)
        return;
    EXPECT_EQ(got->faultAddr, want->faultAddr) << "iter " << iter;
    EXPECT_EQ(got->kind, want->kind) << "iter " << iter;
    EXPECT_EQ(got->reason, want->reason) << "iter " << iter;
    EXPECT_EQ(got->cycle, want->cycle) << "iter " << iter;
}

TEST(CformDiff, MatchesPerByteReference)
{
    Rng rng(0xcf0e11);
    std::set<unsigned> set_fault_bytes, unset_fault_bytes;
    unsigned legal = 0, zero_masks = 0, full_masks = 0;
    for (std::uint64_t iter = 0; iter < 200000; ++iter) {
        const BitVectorLine before = randomLine(rng);
        const CformOp op = randomOp(rng, before);
        zero_masks += op.mask == 0;
        full_masks += op.mask == ~0ull;

        const auto want_check = test::referenceCheckCform(before, op);
        const auto got_check = checkCform(before, op);
        expectSameFault(got_check, want_check, iter);

        BitVectorLine want = before, got = before;
        const auto want_apply = test::referenceApplyCform(want, op);
        const auto got_apply = applyCform(got, op);
        expectSameFault(got_apply, want_apply, iter);
        EXPECT_EQ(got.mask, want.mask) << "iter " << iter;
        EXPECT_EQ(got.data, want.data) << "iter " << iter;
        if (want_apply) {
            // Atomic: a faulting CFORM leaves the line untouched.
            EXPECT_EQ(got, before) << "iter " << iter;
            const unsigned byte =
                static_cast<unsigned>(want_apply->faultAddr - op.lineAddr);
            (want_apply->reason == FaultReason::CformSetOnSecurity
                 ? set_fault_bytes
                 : unset_fault_bytes)
                .insert(byte);
        } else {
            ++legal;
        }
        if (::testing::Test::HasFailure())
            return;
    }
    // The draw reached every case the comparison is meant to cover.
    EXPECT_GT(legal, 10000u);
    EXPECT_GT(zero_masks, 1000u);
    EXPECT_GT(full_masks, 1000u);
    EXPECT_EQ(set_fault_bytes.size(), lineBytes);
    EXPECT_EQ(unset_fault_bytes.size(), lineBytes);
}

TEST(CformDiff, CanonicalMatchesPerByteReference)
{
    Rng rng(0xca90);
    unsigned canonical = 0;
    for (std::uint64_t iter = 0; iter < 100000; ++iter) {
        BitVectorLine line = randomLine(rng);
        if (rng.chance(0.3)) {
            // One stray nonzero byte, possibly under a security byte.
            line.data[rng.nextBelow(lineBytes)] =
                static_cast<std::uint8_t>(rng.nextRange(1, 255));
        }
        EXPECT_EQ(line.canonical(), test::referenceCanonical(line))
            << "iter " << iter;
        canonical += line.canonical();

        BitVectorLine want = line;
        test::referenceCanonicalize(want);
        line.canonicalize();
        EXPECT_EQ(line, want) << "iter " << iter;
        EXPECT_TRUE(line.canonical()) << "iter " << iter;
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GT(canonical, 10000u);
    EXPECT_LT(canonical, 90000u);
}

TEST(CformDiff, BothRejectUnalignedAddresses)
{
    Rng rng(0xa119);
    for (int iter = 0; iter < 1000; ++iter) {
        BitVectorLine line = randomLine(rng);
        CformOp op = randomOp(rng, line);
        op.lineAddr += rng.nextRange(1, lineBytes - 1);
        EXPECT_THROW(test::referenceCheckCform(line, op),
                     std::invalid_argument);
        EXPECT_THROW(checkCform(line, op), std::invalid_argument);
        EXPECT_THROW(applyCform(line, op), std::invalid_argument);
    }
}

} // namespace
} // namespace califorms
