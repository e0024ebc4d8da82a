#include "sim/trace.hh"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace califorms
{

TraceOp
TraceOp::load(Addr addr, unsigned size, bool dep)
{
    TraceOp op;
    op.kind = Kind::Load;
    op.addr = addr;
    op.size = static_cast<std::uint8_t>(size);
    op.dependsOnPrev = dep;
    return op;
}

TraceOp
TraceOp::store(Addr addr, unsigned size, std::uint64_t value)
{
    TraceOp op;
    op.kind = Kind::Store;
    op.addr = addr;
    op.size = static_cast<std::uint8_t>(size);
    op.value = value;
    return op;
}

TraceOp
TraceOp::cformOp(const CformOp &cform)
{
    TraceOp op;
    op.kind = Kind::Cform;
    op.cform = cform;
    return op;
}

TraceOp
TraceOp::compute(std::uint32_t ops)
{
    TraceOp op;
    op.kind = Kind::Compute;
    op.computeOps = ops;
    return op;
}

namespace
{

/** The one place a TraceOp becomes a Machine call. */
inline void
issue(Machine &machine, unsigned core, const TraceOp &op,
      ReplayStats &stats)
{
    ++stats.kindOps[static_cast<std::size_t>(op.kind)];
    switch (op.kind) {
    case TraceOp::Kind::Load:
        stats.checksum ^=
            machine.loadOn(core, op.addr, op.size, op.dependsOnPrev);
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

} // namespace

std::uint64_t
runTrace(Machine &machine, const Trace &trace)
{
    ReplayStats stats;
    for (const TraceOp &op : trace)
        issue(machine, 0, op, stats);
    return stats.checksum;
}

// Cache-line aligned: the issue loop below is every replay's hot loop,
// and where it falls relative to the instruction-fetch window otherwise
// moves with the size of unrelated code linked ahead of it (measured on
// a 4-vCPU x86-64 VM: ~17% ns/op on an L1-resident replay after an
// unrelated code-size change).
[[gnu::aligned(64)]] ReplayStats
replay(Machine &machine, const std::vector<TraceReader *> &streams,
       std::size_t batch_ops, std::uint64_t max_ops)
{
    if (streams.size() != machine.coreCount())
        throw std::invalid_argument(
            "replay: need exactly one stream per core");
    if (!batch_ops)
        throw std::invalid_argument("replay: batch_ops must be >= 1");

    /** Stream c's window into its batch_ops slice of the buffer. */
    struct Lane
    {
        TraceOp *ops;
        std::size_t pos = 0; //!< next buffered op to issue
        std::size_t len = 0; //!< ops the last fill() yielded
        bool open = true;    //!< the stream may yield more
    };
    std::vector<TraceOp> buffer(streams.size() * batch_ops);
    std::vector<Lane> lanes;
    lanes.reserve(streams.size());
    for (std::size_t c = 0; c < streams.size(); ++c)
        lanes.push_back({buffer.data() + c * batch_ops});

    ReplayStats stats;
    std::size_t live = streams.size(); // lanes that may still issue
    while (live) {
        for (unsigned core = 0; core < lanes.size(); ++core) {
            Lane &lane = lanes[core];
            if (lane.pos == lane.len) {
                if (!lane.open)
                    continue;
                // Under a cap, at most `live` lanes share what is
                // left one op per round, so this lane replays at
                // least ceil(left / live) more ops: asking for no
                // more than that never over-reads.
                std::size_t want = batch_ops;
                if (max_ops) {
                    const std::uint64_t share =
                        (max_ops - stats.ops + live - 1) / live;
                    if (share < want)
                        want = static_cast<std::size_t>(share);
                }
                lane.len = streams[core]->fill(lane.ops, want);
                lane.pos = 0;
                lane.open = lane.len == want;
                if (!lane.len) {
                    --live;
                    continue;
                }
                ++stats.batches;
            }
            issue(machine, core, lane.ops[lane.pos++], stats);
            if (++stats.ops == max_ops)
                return stats;
            if (lane.pos == lane.len && !lane.open)
                --live;
        }
    }
    return stats;
}

namespace detail
{

void
writeTraceOpText(std::ostream &os, const TraceOp &op)
{
    os << std::hex;
    switch (op.kind) {
    case TraceOp::Kind::Load:
        os << "L " << op.addr << " " << std::dec << unsigned(op.size)
           << std::hex;
        if (op.dependsOnPrev)
            os << " dep";
        os << "\n";
        break;
    case TraceOp::Kind::Store:
        os << "S " << op.addr << " " << std::dec << unsigned(op.size)
           << std::hex << " " << op.value << "\n";
        break;
    case TraceOp::Kind::Cform:
        os << "C " << op.cform.lineAddr << " " << op.cform.setBits
           << " " << op.cform.mask;
        if (op.cform.nonTemporal)
            os << " nt";
        os << "\n";
        break;
    case TraceOp::Kind::Compute:
        os << "X " << std::dec << op.computeOps << std::hex << "\n";
        break;
    }
}

} // namespace detail

void
writeTrace(std::ostream &os, const Trace &trace)
{
    for (const TraceOp &op : trace)
        detail::writeTraceOpText(os, op);
}

namespace
{

/**
 * Streaming text parser. The optional @p carry string holds bytes the
 * format auto-detection already consumed from the stream; they are
 * logically prepended (they belong to the first line or two).
 */
class TextTraceReader final : public TraceReader
{
  public:
    TextTraceReader(std::istream &is, std::string carry)
        : is_(is), carry_(std::move(carry))
    {}

    bool
    next(TraceOp &op) override
    {
        std::string line;
        while (nextLine(line)) {
            ++lineno_;
            if (parseLine(line, op))
                return true;
        }
        return false;
    }

  private:
    /** getline over carry-then-stream; false at end of input. */
    bool
    nextLine(std::string &line)
    {
        line.clear();
        bool carried = false;
        while (carryPos_ < carry_.size()) {
            carried = true;
            const char c = carry_[carryPos_++];
            if (c == '\n')
                return true;
            line += c;
        }
        std::string rest;
        if (std::getline(is_, rest)) {
            line += rest;
            return true;
        }
        return carried; // a final unterminated carried line
    }

    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("trace line " +
                                 std::to_string(lineno_) + ": " + why);
    }

    /** Parse one line into @p op; false for comments and blanks. */
    bool
    parseLine(const std::string &line, TraceOp &op)
    {
        std::istringstream ss(line);
        std::string tag;
        if (!(ss >> tag) || tag[0] == '#')
            return false;
        auto checkSize = [&](unsigned size) {
            if (size == 0 || size > 8)
                fail("bad access size " + std::to_string(size));
        };
        // Anything after a well-formed op must be the op's own optional
        // flag; unknown trailing tokens are rejected rather than
        // silently dropped so a corrupted trace cannot quietly replay
        // differently.
        auto expectEnd = [&](std::istringstream &rest) {
            std::string extra;
            if (rest >> extra)
                fail("trailing junk '" + extra + "'");
        };
        // Every operand in the format is unsigned; istream extraction
        // would silently wrap a negative number modulo 2^N, replaying
        // a corrupted trace differently instead of rejecting it.
        if (line.find('-') != std::string::npos)
            fail("negative operand");
        if (tag == "L") {
            Addr addr;
            unsigned size;
            std::string dep;
            if (!(ss >> std::hex >> addr >> std::dec >> size))
                fail("malformed load");
            checkSize(size);
            const bool is_dep = static_cast<bool>(ss >> dep);
            if (is_dep && dep != "dep")
                fail("trailing junk '" + dep + "'");
            expectEnd(ss);
            op = TraceOp::load(addr, size, is_dep);
        } else if (tag == "S") {
            Addr addr;
            unsigned size;
            std::uint64_t value;
            if (!(ss >> std::hex >> addr >> std::dec >> size >>
                  std::hex >> value))
                fail("malformed store");
            checkSize(size);
            expectEnd(ss);
            op = TraceOp::store(addr, size, value);
        } else if (tag == "C") {
            CformOp cform;
            std::string nt;
            if (!(ss >> std::hex >> cform.lineAddr >> cform.setBits >>
                  cform.mask))
                fail("malformed cform");
            cform.nonTemporal = static_cast<bool>(ss >> nt);
            if (cform.nonTemporal && nt != "nt")
                fail("trailing junk '" + nt + "'");
            expectEnd(ss);
            op = TraceOp::cformOp(cform);
        } else if (tag == "X") {
            std::uint32_t ops;
            if (!(ss >> std::dec >> ops))
                fail("malformed compute");
            expectEnd(ss);
            op = TraceOp::compute(ops);
        } else {
            fail("unknown op '" + tag + "'");
        }
        return true;
    }

    std::istream &is_;
    std::string carry_;
    std::size_t carryPos_ = 0;
    std::size_t lineno_ = 0;
};

class TextTraceWriter final : public TraceWriter
{
  public:
    explicit TextTraceWriter(std::ostream &os) : os_(os) {}

    void
    put(const TraceOp &op) override
    {
        detail::writeTraceOpText(os_, op);
    }

    void
    finish() override
    {
        os_.flush();
    }

  private:
    std::ostream &os_;
};

} // namespace

Trace
readTrace(std::istream &is)
{
    TextTraceReader reader(is, {});
    Trace trace;
    TraceOp op;
    while (reader.next(op))
        trace.push_back(op);
    return trace;
}

namespace detail
{

std::unique_ptr<TraceReader>
makeTextReader(std::istream &is, std::string carry)
{
    return std::make_unique<TextTraceReader>(is, std::move(carry));
}

std::unique_ptr<TraceWriter>
makeTextWriter(std::ostream &os)
{
    return std::make_unique<TextTraceWriter>(os);
}

} // namespace detail

} // namespace califorms
