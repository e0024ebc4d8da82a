/**
 * @file replay_reference.hh
 * A per-op round-robin replay loop written independently of the
 * batched kernel in sim/trace.hh, as the reference the replay tests
 * compare replay() against: one next() per live stream per round, in
 * core order, a drained stream leaving the rotation.
 */

#ifndef CALIFORMS_TESTS_REPLAY_REFERENCE_HH
#define CALIFORMS_TESTS_REPLAY_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "sim/trace.hh"

namespace califorms::test
{

/** Replay @p streams (one per core) op by op; returns the loads'
 *  value XOR, and the op count via @p ops when non-null. */
inline std::uint64_t
referenceReplay(Machine &machine,
                const std::vector<TraceReader *> &streams,
                std::uint64_t *ops = nullptr)
{
    std::uint64_t checksum = 0;
    std::uint64_t count = 0;
    std::vector<bool> alive(streams.size(), true);
    std::size_t live = streams.size();
    TraceOp op;
    while (live) {
        for (unsigned core = 0; core < streams.size(); ++core) {
            if (!alive[core])
                continue;
            if (!streams[core]->next(op)) {
                alive[core] = false;
                --live;
                continue;
            }
            ++count;
            switch (op.kind) {
            case TraceOp::Kind::Load:
                checksum ^= machine.loadOn(core, op.addr, op.size,
                                           op.dependsOnPrev);
                break;
            case TraceOp::Kind::Store:
                machine.storeOn(core, op.addr, op.size, op.value);
                break;
            case TraceOp::Kind::Cform:
                machine.cformOn(core, op.cform);
                break;
            case TraceOp::Kind::Compute:
                machine.computeOn(core, op.computeOps);
                break;
            }
        }
    }
    if (ops)
        *ops = count;
    return checksum;
}

} // namespace califorms::test

#endif // CALIFORMS_TESTS_REPLAY_REFERENCE_HH
