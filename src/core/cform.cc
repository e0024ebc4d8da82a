#include "core/cform.hh"

#include <stdexcept>

namespace califorms
{

// Table 1 as mask algebra: a selected byte may change only when its R2
// bit differs from its current state (set a regular byte, unset a
// security byte), so every selected byte where they agree faults.
//
// Both kernels stay cache-line aligned although they are now a few
// instructions each: the pins keep every function linked after them at
// the offset mod 64 it had under the per-byte loops (see
// BudgetedGenerator::fill in workload/synth.cc for why offsets matter).
[[gnu::aligned(64)]] std::optional<CaliformsException>
checkCform(const BitVectorLine &line, const CformOp &op)
{
    if (lineOffset(op.lineAddr) != 0)
        throw std::invalid_argument("CFORM: address not line aligned");

    const std::uint64_t bad = op.mask & ~(op.setBits ^ line.mask);
    if (bad == 0)
        return std::nullopt;
    // The lowest faulting byte is reported (precise exception); its R2
    // bit says which illegal transition it attempted.
    const unsigned i = findFirstOne(bad);
    return CaliformsException{op.lineAddr + i, AccessKind::Cform,
                              testBit(op.setBits, i)
                                  ? FaultReason::CformSetOnSecurity
                                  : FaultReason::CformUnsetRegular,
                              0};
}

[[gnu::aligned(64)]] std::optional<CaliformsException>
applyCform(BitVectorLine &line, const CformOp &op)
{
    if (auto fault = checkCform(line, op))
        return fault;

    line.mask = (line.mask & ~op.mask) | (op.setBits & op.mask);
    // Every changed byte reads zero: newly set security bytes are
    // canonical, and freed data was already zeroed by the
    // clean-before-use software contract (Section 6.1).
    line.data.clearBytes(op.mask);
    return std::nullopt;
}

CformOp
makeSetOp(Addr line_addr, SecurityMask security_mask)
{
    CformOp op;
    op.lineAddr = line_addr;
    op.setBits = security_mask;
    op.mask = security_mask;
    return op;
}

CformOp
makeUnsetOp(Addr line_addr, SecurityMask security_mask)
{
    CformOp op;
    op.lineAddr = line_addr;
    op.setBits = 0;
    op.mask = security_mask;
    return op;
}

} // namespace califorms
