#include "core/cform.hh"

#include <stdexcept>

namespace califorms
{

// Both helpers are cache-line aligned for the reason given at
// BudgetedGenerator::fill (workload/synth.cc): every CFORM runs them.
[[gnu::aligned(64)]] std::optional<CaliformsException>
checkCform(const BitVectorLine &line, const CformOp &op)
{
    if (lineOffset(op.lineAddr) != 0)
        throw std::invalid_argument("CFORM: address not line aligned");

    // Table 1, evaluated per byte in address order so the reported fault
    // is the lowest faulting address (precise exception).
    for (unsigned i = 0; i < lineBytes; ++i) {
        if (!testBit(op.mask, i))
            continue; // "Don't Care" column: masked bytes never change
        const bool set = testBit(op.setBits, i);
        const bool sec = line.isSecurityByte(i);
        if (set && sec) {
            return CaliformsException{op.lineAddr + i, AccessKind::Cform,
                                      FaultReason::CformSetOnSecurity, 0};
        }
        if (!set && !sec) {
            return CaliformsException{op.lineAddr + i, AccessKind::Cform,
                                      FaultReason::CformUnsetRegular, 0};
        }
    }
    return std::nullopt;
}

[[gnu::aligned(64)]] std::optional<CaliformsException>
applyCform(BitVectorLine &line, const CformOp &op)
{
    if (auto fault = checkCform(line, op))
        return fault;

    for (unsigned i = 0; i < lineBytes; ++i) {
        if (!testBit(op.mask, i))
            continue;
        if (testBit(op.setBits, i)) {
            line.mask |= 1ull << i;
            line.data[i] = 0; // canonical: security bytes read as zero
        } else {
            line.mask &= ~(1ull << i);
            // The byte stays zero: freed data was already zeroed by the
            // clean-before-use software contract (Section 6.1).
            line.data[i] = 0;
        }
    }
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
