#include "common/shutdown.hh"

#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/log.hh"

namespace ccm
{

namespace
{

/**
 * The one latch allowed to own process signal handlers.  Plain
 * pointer loads/stores are fine for the handler side because the
 * pointer is published before sigaction() and cleared after the
 * handlers are restored.
 */
std::atomic<ShutdownLatch *> installedLatch{nullptr};

struct sigaction savedActions[3];

} // namespace

ShutdownLatch::ShutdownLatch()
{
    if (::pipe(pipeFds) != 0)
        ccm_fatal("ShutdownLatch: pipe() failed: ",
                  errnoString(errno));
    // Nonblocking on both ends: the handler must never block in
    // write() and drainWake() must never block in read().
    for (int fd : pipeFds)
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
}

ShutdownLatch::~ShutdownLatch()
{
    if (installed) {
        for (int i = 0; i < 3; ++i) {
            if (sigs[i] != 0)
                ::sigaction(sigs[i], &savedActions[i], nullptr);
        }
        installedLatch.store(nullptr, std::memory_order_release);
    }
    ::close(pipeFds[0]);
    ::close(pipeFds[1]);
}

Status
ShutdownLatch::installSignalHandlers(int stop_sig, int stop_sig2,
                                     int reload_sig)
{
    // Write the routing table BEFORE the CAS publishes `this`: the
    // release CAS is what hands the latch to handleSignal (possibly
    // running on another thread that already had a handler pending),
    // and the handler reads sigs[2] to route reload vs stop.  Filling
    // sigs afterwards would let a handler observe a half-initialized
    // table.
    sigs[0] = stop_sig;
    sigs[1] = stop_sig2;
    sigs[2] = reload_sig;

    ShutdownLatch *expected = nullptr;
    if (!installedLatch.compare_exchange_strong(
            expected, this, std::memory_order_acq_rel)) {
        sigs[0] = sigs[1] = sigs[2] = 0;
        return Status::internal(
            "another ShutdownLatch already owns the signal handlers");
    }

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &ShutdownLatch::handleSignal;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    for (int i = 0; i < 3; ++i) {
        if (sigs[i] == 0)
            continue;
        if (::sigaction(sigs[i], &sa, &savedActions[i]) != 0) {
            installedLatch.store(nullptr, std::memory_order_release);
            return Status::ioError("sigaction(", sigs[i],
                                   ") failed: ",
                                   errnoString(errno));
        }
    }
    installed = true;
    return Status::ok();
}

void
ShutdownLatch::handleSignal(int sig)
{
    ShutdownLatch *latch =
        installedLatch.load(std::memory_order_acquire);
    if (!latch)
        return;
    if (sig == latch->sigs[2] && sig != 0)
        latch->requestReload();
    else
        latch->requestStop();
}

void
ShutdownLatch::requestStop()
{
    stop_.store(true, std::memory_order_release);
    const char byte = 's';
    // Best effort: a full pipe already guarantees wakeFd() is
    // readable, so a failed write loses nothing.
    [[maybe_unused]] ssize_t n = ::write(pipeFds[1], &byte, 1);
}

void
ShutdownLatch::requestReload()
{
    reload_.store(true, std::memory_order_release);
    const char byte = 'r';
    [[maybe_unused]] ssize_t n = ::write(pipeFds[1], &byte, 1);
}

void
ShutdownLatch::drainWake()
{
    char buf[64];
    while (::read(pipeFds[0], buf, sizeof(buf)) > 0) {
    }
    // A latched stop must keep wakeFd() readable so every poller —
    // present and future — notices it; re-arm the pipe.
    if (stop_.load(std::memory_order_acquire)) {
        const char byte = 's';
        [[maybe_unused]] ssize_t n = ::write(pipeFds[1], &byte, 1);
    }
}

} // namespace ccm
