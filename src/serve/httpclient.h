// Reusable blocking HTTP/1.1 client for the simulation service.
//
// Extracted from the message layer (serve/http.h) so every client in the
// tree — `sqzsim --connect`, the coordinator's chunk dispatch
// (serve/coordinator.h), and the worker-health prober
// (serve/workerpool.h) — shares one transport with one retry discipline:
//
//   * http_fetch: connect, send one request, read one response. timeout_ms
//     bounds the connect, each send and each wait for response bytes, so a
//     peer that never accepts costs one timeout, not the kernel's SYN
//     retries. Failures are classified (FetchError) so policy can tell a
//     refused connection from a protocol violation.
//   * http_fetch_retry: bounded retries with exponential backoff and
//     decorrelated jitter (sleep_n = clamp(uniform[base, 3 * sleep_{n-1}],
//     base, cap)), seeded so chaos tests see a deterministic sleep
//     sequence. A 503's Retry-After is honored as a floor, still capped.
//     4xx responses are never retried — they are the client's own fault.
//
// serve/http.h re-includes this header, so existing client code (and the
// retry chaos suites) compile unchanged against either include.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "serve/http.h"

namespace sqz::serve {

/// Client-side failure, classified so retry policy can be principled:
/// Connect and Timeout never delivered a byte of response; Io lost the
/// connection mid-exchange; Parse means the peer spoke garbage.
class FetchError : public std::runtime_error {
 public:
  enum class Kind { Connect, Timeout, Io, Parse };

  FetchError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const noexcept { return kind_; }

  /// Worth retrying? Everything except a protocol violation: the service
  /// is idempotent (content-addressed cache), so replays are safe.
  bool retryable() const noexcept { return kind_ != Kind::Parse; }

 private:
  Kind kind_;
};

/// A split "host:port" endpoint (numeric IPv4 or "localhost").
struct HostPort {
  std::string host;
  int port = 0;
};

/// Split "host:port", validating the port is an integer in [1, 65535].
/// Throws std::invalid_argument naming `flag` on any violation — shared by
/// `sqzsim --connect` and `sqzserved --workers` so both report endpoint
/// mistakes identically.
HostPort parse_host_port(const std::string& spec, const std::string& flag);

/// Blocking client: connect to host:port (numeric IPv4 or "localhost"),
/// send `req`, read one response. `timeout_ms` bounds the connect, each
/// send and each wait for response bytes. Throws FetchError on connect,
/// I/O, timeout, or parse failure. The Host header is filled in if absent.
HttpResponse http_fetch(const std::string& host, int port, HttpRequest req,
                        int timeout_ms = 60000);

/// Bounded-retry policy: exponential backoff with decorrelated jitter
/// (sleep_n = clamp(uniform[base_ms, 3 * sleep_{n-1}], base_ms, cap_ms)),
/// seeded so the sleep sequence — and therefore a chaos test — is
/// deterministic. A 503 with Retry-After sleeps at least that long, still
/// capped at cap_ms.
struct RetryPolicy {
  int max_attempts = 1;  ///< Total tries, including the first (>= 1).
  int base_ms = 50;
  int cap_ms = 2000;
  std::uint64_t seed = 0x5eedULL;  ///< Jitter stream seed.
};

/// http_fetch plus retries on retryable FetchError and on 503 responses.
/// Never retries other statuses (a 4xx is the client's own fault and will
/// not improve). Returns the final response; rethrows the last FetchError
/// when all attempts fail. `attempts_out` (if non-null) reports how many
/// tries ran.
HttpResponse http_fetch_retry(const std::string& host, int port,
                              const HttpRequest& req, int timeout_ms,
                              const RetryPolicy& policy,
                              int* attempts_out = nullptr);

}  // namespace sqz::serve
