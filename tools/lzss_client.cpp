// lzss_client — talk to a running lzssd.
//
//   lzss_client [options] <op> [file]
//     op: compress <file> | compress-blocked <file> | decompress <file> | ping
//         | stats             (prints the server's machine-readable snapshot:
//                              {"metrics":[...]} JSON, the whole registry)
//         | log-append <file> (prints the durable sequence number)
//         | log-read <seq>    (prints/-o the stored record)
//         | scrub [seg-id]    (online integrity walk over the server's sealed
//                              segments — all of them, or one by id; prints
//                              the JSON tally; exit 1 when damage was found)
//         | verify <file>     (checksum-only container verification: the
//                              server decodes but sends no payload back;
//                              prints the JSON verdict; exit 1 when corrupt)
//         | verify-seq <first[:count]>  (verify stored records first..+count
//                              without reading them back; default count 1)
//     --host <h>     server host (default 127.0.0.1)
//     --port <p>     server port (default 5555)
//     --raw          raw-LZSS container instead of zlib
//     --preset <id>  preset id 0..N (0 = server default)
//     --matchfinder <name>  pin the COMPRESS match source: hw | hashchain |
//                    greedy (default: the server's --matchfinder)
//     -o <path>      write the response payload to this file
//     --no-verify    skip the local round-trip check after compress
//     --retries <n>       extra attempts after BUSY/DEADLINE_EXCEEDED or a
//                         transport error (default 4; 0 disables retry)
//     --retry-base-ms <m> first backoff step, doubled per retry w/ jitter
//     --trace        attach a fresh trace id to the request (kFlagTraced wire
//                    extension); the server traces it end to end and echoes
//                    the id, printed as `trace <id>` on stderr — look it up
//                    with `curl http://127.0.0.1:<http-port>/trace`
//
// Exit codes: 0 success, 1 failure (server error answer, verification
// mismatch), 2 usage, 3 connection error after all retries (connect refused,
// ECONNRESET, or the server closed mid-response — i.e. shed/evicted/down,
// distinguishable by scripts from a definitive server answer).
//
// After a compress the client verifies end to end: it inflates the returned
// container locally, byte-compares against the original file, and checks the
// server-computed Adler-32 — the same guarantee the paper's zlib
// compatibility claim rests on, but over the wire.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/le.hpp"
#include "container/codec.hpp"
#include "deflate/inflate.hpp"
#include "lzss/raw_container.hpp"
#include "server/frame.hpp"
#include "server/retry.hpp"
#include "server/tcp.hpp"

namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot create " + path);
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
}

int usage() {
  std::fprintf(stderr,
               "usage: lzss_client [--host h] [--port p] [--raw] [--preset id] [-o out]\n"
               "                   [--matchfinder hw|hashchain|greedy]\n"
               "                   [--no-verify] [--retries n] [--retry-base-ms m] [--trace]\n"
               "                   compress|compress-blocked|decompress|ping|stats [file]\n"
               "                   | log-append <file> | log-read <seq> | scrub [seg-id]\n"
               "                   | verify <file> | verify-seq <first[:count]>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lzss;

  std::string host = "127.0.0.1", op, file, out_path;
  unsigned port = 5555;
  unsigned preset = 0;
  unsigned retries = 4, retry_base_ms = 50;
  std::uint8_t matchfinder = server::kMatchFinderPolicy;
  bool raw = false, verify = true, trace = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return (i + 1 < argc) ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--host" && (v = next()) != nullptr) {
      host = v;
    } else if (arg == "--port" && (v = next()) != nullptr) {
      port = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--preset" && (v = next()) != nullptr) {
      preset = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "-o" && (v = next()) != nullptr) {
      out_path = v;
    } else if (arg == "--retries" && (v = next()) != nullptr) {
      retries = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--retry-base-ms" && (v = next()) != nullptr) {
      retry_base_ms = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--matchfinder" && (v = next()) != nullptr) {
      server::MatchBackend backend{};
      if (!server::parse_match_backend(v, backend)) return usage();
      matchfinder = static_cast<std::uint8_t>(backend);
    } else if (arg == "--raw") {
      raw = true;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--trace") {
      trace = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (op.empty()) {
      op = arg;
    } else {
      file = arg;
    }
  }
  const bool needs_file = op == "compress" || op == "compress-blocked" ||
                          op == "decompress" || op == "log-append" || op == "log-read" ||
                          op == "verify" || op == "verify-seq";
  if (op.empty() || (needs_file && file.empty()) || port > 65535 || preset > 255)
    return usage();

  try {
    server::RequestFrame req;
    req.id = 1;
    req.flags = server::flags_with_preset(raw ? server::kFlagRawContainer : 0,
                                          static_cast<std::uint8_t>(preset));
    req.flags = server::flags_with_matchfinder(req.flags, matchfinder);
    if (trace) {
      // A client-chosen id always wins over server-side sampling, so this
      // request is traced end to end regardless of the daemon's sample rate.
      std::random_device rd;
      do {
        req.trace_id = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
      } while (req.trace_id == 0);
      req.flags |= server::kFlagTraced;
    }
    if (op == "compress") {
      req.opcode = server::Opcode::kCompress;
      req.payload = read_file(file);
    } else if (op == "compress-blocked") {
      req.opcode = server::Opcode::kCompressBlocked;
      req.payload = read_file(file);
    } else if (op == "decompress") {
      req.opcode = server::Opcode::kDecompress;
      req.payload = read_file(file);
    } else if (op == "log-append") {
      req.opcode = server::Opcode::kLogAppend;
      req.payload = read_file(file);
    } else if (op == "log-read") {
      req.opcode = server::Opcode::kLogRead;
      le::put64(req.payload, static_cast<std::uint64_t>(std::atoll(file.c_str())));
    } else if (op == "scrub") {
      req.opcode = server::Opcode::kScrub;
      if (!file.empty())
        le::put64(req.payload, static_cast<std::uint64_t>(std::atoll(file.c_str())));
    } else if (op == "verify") {
      req.opcode = server::Opcode::kVerify;
      req.payload = read_file(file);
    } else if (op == "verify-seq") {
      req.opcode = server::Opcode::kVerify;
      req.flags |= server::kFlagVerifyStore;
      std::uint64_t first = 0, count = 1;
      const std::size_t colon = file.find(':');
      first = static_cast<std::uint64_t>(std::atoll(file.substr(0, colon).c_str()));
      if (colon != std::string::npos)
        count = static_cast<std::uint64_t>(std::atoll(file.c_str() + colon + 1));
      le::put64(req.payload, first);
      le::put64(req.payload, count);
    } else if (op == "ping") {
      req.opcode = server::Opcode::kPing;
    } else if (op == "stats") {
      req.opcode = server::Opcode::kStats;
    } else {
      return usage();
    }

    // Retry loop: BUSY/DEADLINE_EXCEEDED answers back off and try again;
    // transport errors (connect refused, peer reset mid-call) drop the
    // connection and reconnect on the next attempt.
    server::RetryPolicy policy;
    policy.max_attempts = retries + 1;
    policy.base_delay_ms = retry_base_ms;
    server::Backoff backoff(policy);
    std::unique_ptr<server::TcpClient> client;
    server::ResponseFrame resp;
    for (unsigned attempt = 0;; ++attempt) {
      const bool last = attempt + 1 >= policy.max_attempts;
      try {
        if (!client)
          client = std::make_unique<server::TcpClient>(host, static_cast<std::uint16_t>(port));
        resp = client->call(req);
        if (!server::retryable_status(resp.status) || last) break;
        std::fprintf(stderr, "server answered %s, retry %u/%u\n",
                     server::status_name(resp.status), attempt + 1, retries);
      } catch (const server::TransportError& e) {
        // Typed connection-level failure: the server may have shed or
        // evicted us under load — reconnect and retry with the same backoff
        // BUSY gets. Exhausted retries surface as exit code 3 below.
        client.reset();
        if (last) throw;
        std::fprintf(stderr, "connection error [%s] (%s), retry %u/%u\n",
                     server::transport_error_kind_name(e.kind()), e.what(), attempt + 1,
                     retries);
      } catch (const std::exception& e) {
        client.reset();
        if (last) throw;
        std::fprintf(stderr, "transport error (%s), retry %u/%u\n", e.what(), attempt + 1,
                     retries);
      }
      backoff.sleep(attempt);
    }

    if (trace) {
      // The server echoes the id it actually traced under (ours, unless the
      // request was shed before its payload — then the echo is 0).
      std::fprintf(stderr, "trace %016" PRIx64 "%s\n", resp.trace_id,
                   resp.trace_id == req.trace_id ? "" : " (server-assigned)");
    }

    if (resp.status != server::Status::kOk) {
      std::fprintf(stderr, "server answered %s\n", server::status_name(resp.status));
      return 1;
    }

    if (op == "ping") {
      std::printf("pong (id %llu)\n", static_cast<unsigned long long>(resp.id));
      return 0;
    }
    if (op == "stats") {
      if (!out_path.empty()) {
        write_file(out_path, resp.payload);
      } else {
        std::fwrite(resp.payload.data(), 1, resp.payload.size(), stdout);
        std::printf("\n");
      }
      return 0;
    }
    if (op == "scrub" || op == "verify" || op == "verify-seq") {
      // The payload is the JSON verdict. Exit status mirrors it: a verdict
      // that says the data is damaged fails the command even though the
      // *request* succeeded (OK + "clean":false).
      if (!out_path.empty()) {
        write_file(out_path, resp.payload);
      } else {
        std::fwrite(resp.payload.data(), 1, resp.payload.size(), stdout);
        std::printf("\n");
      }
      const std::string text(resp.payload.begin(), resp.payload.end());
      return text.find("\"clean\":true") != std::string::npos ? 0 : 1;
    }
    if (op == "log-append") {
      if (resp.payload.size() != 8 || resp.adler != checksum::adler32(req.payload)) {
        std::fprintf(stderr, "log-append: malformed ack\n");
        return 1;
      }
      const std::uint64_t seq = le::get64(resp.payload.data());
      std::printf("seq %llu (%zu bytes durable)\n", static_cast<unsigned long long>(seq),
                  req.payload.size());
      return 0;
    }
    if (op == "log-read") {
      if (resp.adler != checksum::adler32(resp.payload)) {
        std::fprintf(stderr, "log-read: adler MISMATCH\n");
        return 1;
      }
      if (!out_path.empty()) {
        write_file(out_path, resp.payload);
      } else {
        std::fwrite(resp.payload.data(), 1, resp.payload.size(), stdout);
      }
      return 0;
    }

    const bool compressing = op == "compress" || op == "compress-blocked";
    if (compressing && verify) {
      // End-to-end proof: inflate locally, capped at the input size, and
      // byte-compare.
      const std::size_t cap = req.payload.size();
      const auto round = op == "compress-blocked" ? container::block_decompress(resp.payload, cap)
                         : raw ? core::raw_container_unpack(resp.payload, cap)
                               : deflate::zlib_decompress(resp.payload, cap);
      if (round != req.payload) {
        std::fprintf(stderr, "round-trip MISMATCH: inflated output differs from input\n");
        return 1;
      }
      if (resp.adler != checksum::adler32(req.payload)) {
        std::fprintf(stderr, "adler MISMATCH: server %08x\n", resp.adler);
        return 1;
      }
    }
    if (op == "decompress" && resp.adler != checksum::adler32(resp.payload)) {
      // The adler field is the checksum of the *reconstructed* data; a
      // mismatch means the response was mangled in transit.
      std::fprintf(stderr, "adler MISMATCH: server %08x\n", resp.adler);
      return 1;
    }
    if (!out_path.empty()) write_file(out_path, resp.payload);

    // Name the container that is actually on the compressed side: what the
    // server produced for compress ops, what we sent it for decompress.
    const char* kind = op == "compress-blocked"             ? "LZBC"
                       : op == "decompress"                 ? (container::looks_like_container(req.payload)
                                                                  ? "LZBC"
                                                                  : "zlib/raw")
                       : raw                                ? "raw"
                                                            : "zlib";
    std::printf("%zu -> %zu bytes (ratio %.3f, %s container%s)\n", req.payload.size(),
                resp.payload.size(),
                resp.payload.empty()
                    ? 0.0
                    : static_cast<double>(req.payload.size()) /
                          static_cast<double>(resp.payload.size()),
                kind, compressing && verify ? ", round-trip verified" : "");
    return 0;
  } catch (const server::TransportError& e) {
    std::fprintf(stderr, "lzss_client: connection error [%s]: %s\n",
                 server::transport_error_kind_name(e.kind()), e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lzss_client: %s\n", e.what());
    return 1;
  }
}
