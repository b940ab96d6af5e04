#include "workloads/code_stream.hh"

#include "common/log.hh"

namespace ccm
{

namespace
{

constexpr Addr codeBase = 0x00400000;   // classic text-segment base
constexpr Addr l1Span = 16 * 1024;

} // namespace

CodeStreamWorkload::CodeStreamWorkload(
    std::string label_, std::vector<CodeFunction> functions,
    std::vector<unsigned> call_sequence, std::size_t total_instrs)
    : label(std::move(label_)), funcs(std::move(functions)),
      seq(std::move(call_sequence)), total(total_instrs)
{
    if (funcs.empty() || seq.empty() || total == 0)
        ccm_fatal("code stream needs functions, a call sequence and "
                  "a length");
    for (unsigned idx : seq) {
        if (idx >= funcs.size())
            ccm_fatal("call sequence references function ", idx,
                      " of ", funcs.size());
    }
}

bool
CodeStreamWorkload::next(MemRecord &out)
{
    if (emitted >= total)
        return false;

    const CodeFunction &f = funcs[seq[seqPos]];
    Addr pc = f.entry + instrInFunc * 4;

    out = MemRecord{};
    out.pc = pc;
    out.addr = pc;              // an I-fetch of this instruction
    out.type = RecordType::Load;

    ++emitted;
    if (++instrInFunc >= f.instrs) {
        instrInFunc = 0;
        seqPos = (seqPos + 1) % seq.size();
    }
    return true;
}

std::size_t
CodeStreamWorkload::nextBatch(MemRecord *out, std::size_t n)
{
    std::size_t got = 0;
    while (got < n && emitted < total) {
        const CodeFunction &f = funcs[seq[seqPos]];
        Addr pc = f.entry + instrInFunc * 4;

        out[got] = MemRecord{};
        out[got].pc = pc;
        out[got].addr = pc;
        out[got].type = RecordType::Load;
        ++got;

        ++emitted;
        if (++instrInFunc >= f.instrs) {
            instrInFunc = 0;
            seqPos = (seqPos + 1) % seq.size();
        }
    }
    return got;
}

void
CodeStreamWorkload::reset()
{
    emitted = 0;
    seqPos = 0;
    instrInFunc = 0;
}

CodeStreamWorkload
CodeStreamWorkload::hotLoop(std::size_t instrs)
{
    // One 4KB loop body.
    return CodeStreamWorkload(
        "icache-hotloop", {{codeBase, 1024}}, {0}, instrs);
}

CodeStreamWorkload
CodeStreamWorkload::collidingCalls(std::size_t instrs)
{
    // Caller and callee whose bodies alias in a 16KB DM I-cache.
    // 96-instruction bodies (6 lines) keep the ping-pong within an
    // 8-entry victim buffer's reach.
    return CodeStreamWorkload(
        "icache-colliding",
        {{codeBase, 96}, {codeBase + 8 * l1Span, 96}}, {0, 1},
        instrs);
}

CodeStreamWorkload
CodeStreamWorkload::hugeCode(std::size_t instrs)
{
    // Four 16KB functions: 64KB of code, executed round-robin.
    std::vector<CodeFunction> fs;
    std::vector<unsigned> seq;
    for (unsigned i = 0; i < 4; ++i) {
        fs.push_back({codeBase + i * (l1Span + 13 * 64), 4096});
        seq.push_back(i);
    }
    return CodeStreamWorkload("icache-huge", std::move(fs),
                              std::move(seq), instrs);
}

CodeStreamWorkload
CodeStreamWorkload::mixed(std::size_t instrs)
{
    // A hot 2KB loop calling two colliding 1KB helpers and, less
    // often, a cold 24KB initialization-style routine.
    std::vector<CodeFunction> fs = {
        {codeBase, 512},                        // 0: hot loop body
        {codeBase + 0x100000, 64},              // 1: helper A
        {codeBase + 0x100000 + 4 * l1Span, 64},   // 2: helper B
        {codeBase + 0x200000 + 13 * 64, 6144},  // 3: cold tail, 24KB
    };
    std::vector<unsigned> seq = {0, 1, 0, 2, 0, 1, 0, 2,
                                 0, 1, 0, 2, 0, 3};
    return CodeStreamWorkload("icache-mixed", std::move(fs),
                              std::move(seq), instrs);
}

} // namespace ccm
