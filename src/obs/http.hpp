// Minimal HTTP/1.0 GET sidecar for live telemetry scrapes.
//
// Prometheus wants to scrape a running daemon, and an operator debugging a
// slow request wants the trace ring NOW, not at shutdown. This listener is
// deliberately tiny: one background thread, blocking accept via poll(2) with
// a self-pipe for shutdown, GET-only, `Connection: close`, each response
// rendered by a registered callback at request time. It serves telemetry
// text to a handful of trusted scrapers — it is not a general web server
// (no keep-alive, no TLS, no request bodies, 8 KiB request cap).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace lzss::obs {

class HttpSidecar {
 public:
  /// Binds and listens on 127.0.0.1:@p port (0 = kernel-assigned; read the
  /// result back with port()). Throws std::runtime_error on bind failure.
  explicit HttpSidecar(std::uint16_t port);
  ~HttpSidecar();
  HttpSidecar(const HttpSidecar&) = delete;
  HttpSidecar& operator=(const HttpSidecar&) = delete;

  /// Register @p body to answer `GET path` (exact match) with @p content_type.
  /// Call before start(); handlers run on the sidecar thread.
  void handle(std::string path, std::string content_type,
              std::function<std::string()> body);

  void start();
  void stop() noexcept;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint64_t requests_served() const noexcept;

 private:
  struct Endpoint {
    std::string path;
    std::string content_type;
    std::function<std::string()> body;
  };

  void serve_loop();
  void serve_one(int fd);

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::vector<Endpoint> endpoints_;
  std::thread thread_;
  std::atomic<bool> running_{false};  ///< read by the serve thread, cleared by stop()
  std::atomic<std::uint64_t> served_{0};
};

}  // namespace lzss::obs
