/**
 * @file cform_reference.hh
 * The per-byte Table 1 kernels (check, apply, canonical, canonicalize),
 * kept as the reference the differential tests compare the
 * word-parallel CFORM kernels against. Each walks the 64 bytes in
 * address order and decides every byte on its own, exactly as the
 * K-map reads, so any divergence in the reported fault (address, kind,
 * reason), the post-state mask and data, or atomicity on a fault is a
 * bug in the mask algebra of core/cform.cc or core/line.hh.
 */

#ifndef CALIFORMS_TESTS_CFORM_REFERENCE_HH
#define CALIFORMS_TESTS_CFORM_REFERENCE_HH

#include <optional>
#include <stdexcept>

#include "core/cform.hh"

namespace califorms::test
{

inline std::optional<CaliformsException>
referenceCheckCform(const BitVectorLine &line, const CformOp &op)
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

inline std::optional<CaliformsException>
referenceApplyCform(BitVectorLine &line, const CformOp &op)
{
    if (auto fault = referenceCheckCform(line, op))
        return fault;

    for (unsigned i = 0; i < lineBytes; ++i) {
        if (!testBit(op.mask, i))
            continue;
        if (testBit(op.setBits, i)) {
            line.mask |= 1ull << i;
            line.data[i] = 0; // canonical: security bytes read as zero
        } else {
            line.mask &= ~(1ull << i);
            line.data[i] = 0;
        }
    }
    return std::nullopt;
}

inline bool
referenceCanonical(const BitVectorLine &line)
{
    for (unsigned i = 0; i < lineBytes; ++i)
        if (line.isSecurityByte(i) && line.data[i] != 0)
            return false;
    return true;
}

inline void
referenceCanonicalize(BitVectorLine &line)
{
    for (unsigned i = 0; i < lineBytes; ++i)
        if (line.isSecurityByte(i))
            line.data[i] = 0;
}

} // namespace califorms::test

#endif // CALIFORMS_TESTS_CFORM_REFERENCE_HH
