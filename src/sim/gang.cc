#include "sim/gang.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"
#include "support/tracing.hh"

namespace bpred
{

GangSession::GangSession(std::size_t block_records)
    : blockRecords_(block_records ? block_records
                                  : defaultReplayBlockRecords)
{
}

std::size_t
GangSession::add(Predictor &predictor, const SimOptions &options,
                 std::string trace_name)
{
    if (finished_) {
        fatal("GangSession: add after finish");
    }
    if (fedAny) {
        fatal("GangSession: add after feeding started");
    }
    Member member;
    member.session = std::make_unique<SimSession>(
        predictor, options, std::move(trace_name));
    member.session->useSharedScratch(&sharedScratch);
    members.push_back(std::move(member));
    return members.size() - 1;
}

void
GangSession::feed(const BranchRecord *records, std::size_t count)
{
    if (finished_) {
        fatal("GangSession: feed after finish");
    }
    fedAny = true;
    for (std::size_t at = 0; at < count; at += blockRecords_) {
        const std::size_t n = std::min(blockRecords_, count - at);
        TRACE_SCOPE("gang", "block", at / blockRecords_,
                    members.size());
        // Every member replays this block while it is cache-hot;
        // only then does the gang advance to the next block. While
        // the block is open, members entering it with the same
        // history share its phase-0 compaction; closing it drops
        // the staged tiles, since the next block may arrive in the
        // same buffer under the same history.
        if (members.size() > 1) {
            sharedScratch.openBlock(records + at, n);
        }
        for (std::size_t slot = 0; slot < members.size(); ++slot) {
            Member &member = members[slot];
            if (member.error) {
                continue;
            }
            try {
                TRACE_SCOPE("gang", "member-replay", slot, n);
                member.session->feed(records + at, n);
            } catch (...) {
                // Park the failure and keep the rest of the gang
                // running — one bad cell never wedges a sweep.
                TRACE_INSTANT("gang", "member-error");
                member.error = std::current_exception();
            }
        }
        sharedScratch.closeBlock();
    }
}

std::vector<SimResult>
GangSession::finish()
{
    if (finished_) {
        fatal("GangSession: finish called twice");
    }
    TRACE_SCOPE("gang", "finish", 0, members.size());
    finished_ = true;
    std::vector<SimResult> results(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
        Member &member = members[i];
        if (member.error) {
            continue;
        }
        try {
            results[i] = member.session->finish();
        } catch (...) {
            member.error = std::current_exception();
        }
    }
    return results;
}

std::exception_ptr
GangSession::memberError(std::size_t index) const
{
    if (index >= members.size()) {
        fatal("GangSession: memberError index out of range");
    }
    return members[index].error;
}

std::vector<SimResult>
simulateGang(const std::vector<Predictor *> &predictors,
             const Trace &trace, const SimOptions &options,
             std::size_t block_records)
{
    GangSession gang(block_records);
    for (Predictor *predictor : predictors) {
        if (!predictor) {
            fatal("simulateGang: null predictor");
        }
        gang.add(*predictor, options, trace.name());
    }
    gang.feed(trace);
    std::vector<SimResult> results = gang.finish();
    for (std::size_t i = 0; i < predictors.size(); ++i) {
        if (std::exception_ptr error = gang.memberError(i)) {
            std::rethrow_exception(error);
        }
    }
    return results;
}

} // namespace bpred
