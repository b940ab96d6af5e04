#include "serve/client.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ccm::serve
{

namespace
{

/** One blocking connect attempt. */
Expected<int>
connectOnce(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        return Status::badConfig("socket path too long: ", path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return Status::ioError("socket(): ", errnoString(errno));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        Status s = Status::unavailable("connect ", path, ": ",
                                       errnoString(errno));
        ::close(fd);
        return s;
    }
    return fd;
}

/** Backoff ceiling between connect attempts. */
constexpr int kBackoffMaxMs = 1000;

/**
 * Connect with retry + exponential backoff: attempt, sleep
 * backoffInitialMs, double, cap at kBackoffMaxMs, up to
 * connectRetries attempts in total.
 */
Expected<int>
connectWithRetry(const std::string &path, const ClientOptions &opts)
{
    const int attempts = std::max(1, opts.connectRetries);
    int backoff = std::max(1, opts.backoffInitialMs);
    Status last = Status::unavailable("no connect attempt made");
    for (int i = 0; i < attempts; ++i) {
        if (i > 0) {
            ::poll(nullptr, 0, backoff);
            backoff = std::min(backoff * 2, kBackoffMaxMs);
        }
        auto fd = connectOnce(path);
        if (fd.ok())
            return fd;
        last = fd.status();
    }
    return last.withContext("after " + std::to_string(attempts) +
                            " attempts");
}

} // namespace

Expected<ServeClient>
ServeClient::connect(const std::string &socket_path,
                     const std::string &stream_name,
                     const ClientOptions &opts)
{
    auto fd = connectWithRetry(socket_path, opts);
    if (!fd.ok())
        return fd.status().withContext("stream '" + stream_name +
                                       "'");
    ServeClient client(fd.value(), opts);
    appendHelloFrame(client.sendBuf, stream_name);
    Status s = client.sendBuffered();
    if (!s.isOk())
        return s.withContext("hello for stream '" + stream_name +
                             "'");
    return client;
}

ServeClient::~ServeClient()
{
    if (fd >= 0)
        ::close(fd);
}

ServeClient::ServeClient(ServeClient &&other) noexcept
    : fd(other.fd), opts(other.opts), sendBuf(std::move(other.sendBuf))
{
    other.fd = -1;
}

ServeClient &
ServeClient::operator=(ServeClient &&other) noexcept
{
    if (this != &other) {
        if (fd >= 0)
            ::close(fd);
        fd = other.fd;
        opts = other.opts;
        sendBuf = std::move(other.sendBuf);
        other.fd = -1;
    }
    return *this;
}

Status
ServeClient::sendAllBytes(const std::uint8_t *data, std::size_t n)
{
    if (fd < 0)
        return Status::internal("client is not connected");
    std::size_t off = 0;
    while (off < n) {
        pollfd pf{};
        pf.fd = fd;
        pf.events = POLLOUT;
        const int pr = ::poll(&pf, 1, opts.ioTimeoutMs);
        if (pr < 0 && errno == EINTR)
            continue;
        if (pr == 0)
            return Status::unavailable(
                "send timed out after ", opts.ioTimeoutMs,
                " ms (daemon backpressure or stall)");
        if (pr < 0)
            return Status::ioError("poll(): ", errnoString(errno));
        const ssize_t w =
            ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            return Status::ioError("send(): ", errnoString(errno));
        }
        off += static_cast<std::size_t>(w);
    }
    return Status::ok();
}

Status
ServeClient::sendBuffered()
{
    Status s = sendAllBytes(sendBuf.data(), sendBuf.size());
    sendBuf.clear();
    return s;
}

Status
ServeClient::sendRecords(const MemRecord *recs, std::size_t n)
{
    appendRecordsFrames(sendBuf, recs, n);
    return sendBuffered();
}

Status
ServeClient::sendEnd()
{
    appendEndFrame(sendBuf);
    return sendBuffered();
}

Status
ServeClient::sendRawBytes(const std::uint8_t *data, std::size_t n)
{
    return sendAllBytes(data, n);
}

void
ServeClient::closeAbrupt()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

Status
ServeClient::streamAll(TraceSource &src)
{
    MemRecord batch[kMaxRecordsPerFrame];
    for (;;) {
        const std::size_t n =
            src.nextBatch(batch, kMaxRecordsPerFrame);
        if (n == 0)
            break;
        Status s = sendRecords(batch, n);
        if (!s.isOk())
            return s;
    }
    return sendEnd();
}

Expected<std::string>
controlRequest(const std::string &control_path,
               const std::string &command, const ClientOptions &opts)
{
    auto connected = connectWithRetry(control_path, opts);
    if (!connected.ok())
        return connected.status().withContext("control socket");
    const int fd = connected.value();

    auto fail = [fd](Status s) -> Expected<std::string> {
        ::close(fd);
        return s;
    };

    const std::string line = command + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
        pollfd pf{};
        pf.fd = fd;
        pf.events = POLLOUT;
        const int pr = ::poll(&pf, 1, opts.ioTimeoutMs);
        if (pr < 0 && errno == EINTR)
            continue;
        if (pr == 0)
            return fail(Status::unavailable(
                "control send timed out after ", opts.ioTimeoutMs,
                " ms"));
        if (pr < 0)
            return fail(
                Status::ioError("poll(): ", errnoString(errno)));
        const ssize_t w = ::send(fd, line.data() + off,
                                 line.size() - off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            return fail(
                Status::ioError("send(): ", errnoString(errno)));
        }
        off += static_cast<std::size_t>(w);
    }
    ::shutdown(fd, SHUT_WR);

    std::string reply;
    char chunk[4096];
    for (;;) {
        pollfd pf{};
        pf.fd = fd;
        pf.events = POLLIN;
        const int pr = ::poll(&pf, 1, opts.ioTimeoutMs);
        if (pr < 0 && errno == EINTR)
            continue;
        if (pr == 0)
            return fail(Status::unavailable(
                "control reply timed out after ", opts.ioTimeoutMs,
                " ms"));
        if (pr < 0)
            return fail(
                Status::ioError("poll(): ", errnoString(errno)));
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n == 0)
            break;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return fail(
                Status::ioError("recv(): ", errnoString(errno)));
        }
        reply.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
}

} // namespace ccm::serve
