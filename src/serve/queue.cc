#include "serve/queue.hh"

#include <algorithm>

namespace ccm::serve
{

const char *
toString(OverflowPolicy p)
{
    return p == OverflowPolicy::Block ? "block" : "shed";
}

Expected<OverflowPolicy>
parseOverflowPolicy(std::string_view name)
{
    if (name == "block")
        return OverflowPolicy::Block;
    if (name == "shed")
        return OverflowPolicy::Shed;
    return Status::badConfig("unknown overflow policy '", name,
                             "' (expected block or shed)");
}

RecordQueue::RecordQueue(std::size_t capacity, OverflowPolicy policy)
    : cap(capacity == 0 ? 1 : capacity), policy_(policy), ring(cap)
{
}

void
RecordQueue::enqueueRun(const MemRecord *recs, std::size_t n)
{
    const std::size_t tail = (head + count) % cap;
    std::copy(recs, recs + n,
              ring.begin() + static_cast<std::ptrdiff_t>(tail));
    count += n;
    stats_.pushed += n;
    stats_.maxDepth = std::max<Count>(stats_.maxDepth, count);
}

std::size_t
RecordQueue::push(const MemRecord *recs, std::size_t n)
{
    MutexLock lock(mu);
    std::size_t accepted = 0;
    while (accepted < n) {
        if (inputClosed || aborted_)
            break;
        if (count == cap) {
            if (policy_ == OverflowPolicy::Shed) {
                stats_.shed += n - accepted;
                break;
            }
            const std::size_t room =
                std::min(n - accepted, cap / 2 + 1);
            canPush.wait(mu, [this, room]() CCM_REQUIRES(mu) {
                return cap - count >= room || inputClosed || aborted_;
            });
            continue;
        }
        const std::size_t tail = (head + count) % cap;
        const std::size_t run = std::min(
            {n - accepted, cap - count, cap - tail});
        enqueueRun(recs + accepted, run);
        accepted += run;
        canPop.notifyOne();
    }
    return accepted;
}

std::size_t
RecordQueue::pop(MemRecord *out, std::size_t max)
{
    MutexLock lock(mu);
    canPop.wait(mu, [this]() CCM_REQUIRES(mu) {
        return count > 0 || inputClosed || aborted_;
    });
    if (aborted_ || (count == 0 && inputClosed))
        return 0;
    const std::size_t take = std::min(max, count);
    const std::size_t first = std::min(take, cap - head);
    const auto from = ring.begin() + static_cast<std::ptrdiff_t>(head);
    std::copy(from, from + static_cast<std::ptrdiff_t>(first), out);
    std::copy(ring.begin(),
              ring.begin() + static_cast<std::ptrdiff_t>(take - first),
              out + first);
    head = take < cap - head ? head + take : take - first;
    count -= take;
    stats_.popped += take;
    if (cap - count > cap / 2)
        canPush.notifyOne();
    return take;
}

void
RecordQueue::closeInput()
{
    MutexLock lock(mu);
    inputClosed = true;
    canPush.notifyAll();
    canPop.notifyAll();
}

void
RecordQueue::abort()
{
    MutexLock lock(mu);
    aborted_ = true;
    inputClosed = true;
    count = 0;
    head = 0;
    canPush.notifyAll();
    canPop.notifyAll();
}

} // namespace ccm::serve
