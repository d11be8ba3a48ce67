#include "serve/httpclient.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/rng.h"
#include "util/threadpool.h"

namespace sqz::serve {

namespace {

struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

[[noreturn]] void throw_fetch(FetchError::Kind kind, const std::string& what) {
  throw FetchError(kind, what + ": " + std::strerror(errno));
}

}  // namespace

HostPort parse_host_port(const std::string& spec, const std::string& flag) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size())
    throw std::invalid_argument(flag + " expects host:port, got '" + spec +
                                "'");
  HostPort out;
  out.host = spec.substr(0, colon);
  out.port =
      util::ThreadPool::parse_jobs(spec.substr(colon + 1), flag + " port");
  if (out.port > 65535)
    throw std::invalid_argument(flag + " port must be in [1, 65535]");
  return out;
}

HttpResponse http_fetch(const std::string& host, int port, HttpRequest req,
                        int timeout_ms) {
  if (port <= 0 || port > 65535)
    throw FetchError(FetchError::Kind::Connect,
                     "http_fetch: bad port " + std::to_string(port));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string ip = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1)
    throw FetchError(FetchError::Kind::Connect,
                     "http_fetch: cannot resolve '" + host +
                         "' (use a numeric IPv4 address or localhost)");

  Fd sock;
  sock.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (sock.fd < 0) throw_fetch(FetchError::Kind::Connect, "http_fetch: socket");
  // The deadline covers connect and send too: on Linux SO_SNDTIMEO bounds a
  // blocking connect (EINPROGRESS when it lapses) as well as each send. A
  // peer whose accept queue is full drops our SYNs, and without the bound
  // connect would wait out the kernel's SYN retries (about two minutes).
  const timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  ::setsockopt(sock.fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const std::string where = host + ":" + std::to_string(port);
  if (::connect(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno == EINPROGRESS || errno == EAGAIN)
      throw FetchError(FetchError::Kind::Timeout,
                       "http_fetch: connect to " + where +
                           " not completed within " +
                           std::to_string(timeout_ms) + " ms");
    throw_fetch(FetchError::Kind::Connect, "http_fetch: connect to " + where);
  }

  if (!req.header("Host")) req.headers.emplace_back("Host", where);
  if (!req.header("Connection")) req.headers.emplace_back("Connection", "close");

  const std::string wire = req.serialize();
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(sock.fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw FetchError(FetchError::Kind::Timeout,
                         "http_fetch: request to " + where +
                             " not sent within " + std::to_string(timeout_ms) +
                             " ms");
      throw_fetch(FetchError::Kind::Io, "http_fetch: send");
    }
    sent += static_cast<std::size_t>(n);
  }

  std::string buffer;
  char chunk[16384];
  for (;;) {
    pollfd p{sock.fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, timeout_ms);
    if (pr < 0) throw_fetch(FetchError::Kind::Io, "http_fetch: poll");
    if (pr == 0)
      throw FetchError(FetchError::Kind::Timeout,
                       "http_fetch: no response within " +
                           std::to_string(timeout_ms) + " ms");
    const ssize_t n = ::recv(sock.fd, chunk, sizeof(chunk), 0);
    if (n < 0) throw_fetch(FetchError::Kind::Io, "http_fetch: recv");
    if (n == 0)
      throw FetchError(FetchError::Kind::Io,
                       "http_fetch: connection closed early");
    buffer.append(chunk, static_cast<std::size_t>(n));

    HttpResponse resp;
    std::size_t consumed = 0;
    std::string err;
    switch (parse_http_response(buffer, resp, consumed, &err)) {
      case ParseStatus::Ok: return resp;
      case ParseStatus::NeedMore: break;
      case ParseStatus::Error:
      case ParseStatus::TooLarge:
        throw FetchError(FetchError::Kind::Parse,
                         "http_fetch: bad response: " + err);
    }
  }
}

HttpResponse http_fetch_retry(const std::string& host, int port,
                              const HttpRequest& req, int timeout_ms,
                              const RetryPolicy& policy, int* attempts_out) {
  const int max_attempts = std::max(1, policy.max_attempts);
  const int base_ms = std::max(1, policy.base_ms);
  const int cap_ms = std::max(base_ms, policy.cap_ms);
  util::Rng rng(policy.seed);
  int prev_sleep_ms = base_ms;

  // Decorrelated jitter (Brooker): each sleep is uniform over
  // [base, 3 * previous sleep], clamped to [base, cap]. Spreads retry storms
  // without the lockstep thundering herd of plain exponential backoff.
  const auto next_sleep = [&](int at_least_ms) {
    const std::int64_t hi =
        std::min<std::int64_t>(cap_ms, 3 * std::int64_t{prev_sleep_ms});
    int sleep_ms = static_cast<int>(rng.next_in(base_ms, hi));
    sleep_ms = std::max(sleep_ms, std::min(at_least_ms, cap_ms));
    prev_sleep_ms = sleep_ms;
    return sleep_ms;
  };

  for (int attempt = 1;; ++attempt) {
    if (attempts_out) *attempts_out = attempt;
    int retry_after_ms = 0;
    try {
      HttpResponse resp = http_fetch(host, port, req, timeout_ms);
      if (resp.status != 503 || attempt >= max_attempts) return resp;
      // Shed by a saturated server: honor Retry-After (seconds) as a floor,
      // still capped so tests and tight deadlines stay fast.
      if (const std::string* ra = resp.header("Retry-After")) {
        errno = 0;
        char* end = nullptr;
        const long sec = std::strtol(ra->c_str(), &end, 10);
        if (end != ra->c_str() && *end == '\0' && errno == 0 && sec > 0)
          retry_after_ms = static_cast<int>(
              std::min<long>(sec * 1000L, cap_ms));
      }
    } catch (const FetchError& e) {
      if (!e.retryable() || attempt >= max_attempts) throw;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(next_sleep(retry_after_ms)));
  }
}

}  // namespace sqz::serve
