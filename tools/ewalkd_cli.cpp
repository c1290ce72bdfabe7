// ewalkd — the long-lived serving daemon: a persistent process over a
// cached graph store, accepting line-delimited JSON run requests and
// streaming back tagged results (src/serve/).
//
// Usage:
//   ewalkd --stdin [--cache-bytes B] [--inflight N] [--threads T]
//   ewalkd --port P [--cache-bytes B] [--inflight N] [--threads T]
//
// --stdin serves one request pipe on stdin/stdout (the mode CI and the
// tests drive; EOF or a {"op":"shutdown"} line ends it). --port listens on
// 127.0.0.1:P (0 picks an ephemeral port, reported on stdout) with one
// reader thread per connection, all sharing the cache and the scheduler.
//
// Protocol quickstart (see src/serve/protocol.hpp for the full shape):
//   {"op":"run","id":"a","graph":"regular","process":"eprocess",
//    "seed":7,"trials":5,"params":{"n":"4096","r":"4"}}
//   {"op":"stats"}   {"op":"drain"}   {"op":"ping"}   {"op":"shutdown"}
//
// Responses are one JSON line each, tagged with the request id; runs ack
// immediately ("queued" + ticket) and their results stream back when they
// complete. tools/ewalk_client.py wraps both transports.
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

using namespace ewalk;

// ewalkd's flags, with ServerConfig's defaults.
const ParamSchema& daemon_flags() {
  static const ParamSchema flags = [] {
    const ServerConfig d;
    return ParamSchema{
        {"stdin", ParamType::kBool, "false", {},
         "serve line-delimited JSON on stdin/stdout"},
        {"port", ParamType::kU32, "", {},
         "listen on 127.0.0.1:P (0 = ephemeral, printed)"},
        {"cache-bytes", ParamType::kU64, std::to_string(d.cache_bytes), {},
         "graph cache byte budget (0 = unlimited)"},
        {"inflight", ParamType::kU32, std::to_string(d.max_inflight), {1.0},
         "max queued+running run requests"},
        {"threads", ParamType::kU32, std::to_string(d.threads), {},
         "run-execution parallelism (0 = hardware)"},
        {"help", ParamType::kBool, "false", {}, "this text"},
    };
  }();
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    if (cli.has("help")) {
      std::printf("ewalkd — serving daemon over a cached graph store\n\n"
                  "usage: ewalkd --stdin | --port P [options]\n\n");
      print_params(daemon_flags(), "  ");
      std::printf(
          "\nOne JSON object per request line; see src/serve/protocol.hpp and\n"
          "tools/ewalk_client.py. `ewalk --help` lists the run fields, graph\n"
          "families and processes a request may name.\n");
      return 0;
    }
    cli.check({&daemon_flags()});
    const ParamMap flags = cli.with_defaults(daemon_flags());
    ServerConfig config;
    config.cache_bytes = flags.get_u64("cache-bytes");
    config.max_inflight = static_cast<std::uint32_t>(flags.get_u64("inflight"));
    config.threads = static_cast<std::uint32_t>(flags.get_u64("threads"));
    if (flags.get_bool("stdin") == flags.has("port"))
      throw std::invalid_argument(
          "pick exactly one transport: --stdin or --port P");

    Server server(config);
    if (flags.get_bool("stdin")) {
      server.serve_stream(std::cin, std::cout);
      return 0;
    }
    const std::uint16_t bound =
        server.listen_tcp(static_cast<std::uint16_t>(flags.get_u64("port")));
    std::printf("ewalkd: listening on 127.0.0.1:%u\n", bound);
    std::fflush(stdout);
    server.serve_tcp();
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
}
