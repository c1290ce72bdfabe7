#include "util/cli.hpp"

#include <cstdio>

#include "util/thread_pool.hpp"

namespace ewalk {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      set(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      set(arg, argv[++i]);
    } else {
      set(arg, "true");
    }
  }
}

void print_params(const ParamSchema& schema, const char* indent) {
  for (const ParamSpec& spec : schema) {
    const std::string flag =
        "--" + spec.name + (spec.fallback.empty() ? "" : " " + spec.fallback);
    const std::string alias =
        spec.alias.empty() ? "" : " (alias --" + spec.alias + ")";
    std::printf("%s%-22s %s%s\n", indent, flag.c_str(), spec.doc.c_str(),
                alias.c_str());
  }
}

std::uint32_t resolve_cli_threads(const Cli& cli, std::uint32_t default_threads) {
  const std::uint64_t requested = cli.get_u64("threads", default_threads);
  bool clamped = false;
  const std::uint32_t threads = resolve_thread_count(requested, &clamped);
  if (clamped)
    std::fprintf(stderr,
                 "warning: --threads %llu exceeds the %u hardware threads; "
                 "clamped to %u\n",
                 static_cast<unsigned long long>(requested),
                 Executor::hardware_threads(), threads);
  if (cli.get_bool("pin", false)) {
    if (!Executor::pin_supported())
      throw std::invalid_argument(
          "--pin: thread-affinity pinning is not supported on this platform");
    if (!Executor::instance().set_pinning(true))
      std::fprintf(stderr,
                   "warning: --pin: could not apply affinity to every worker "
                   "(restricted cpuset?)\n");
  }
  return threads;
}

}  // namespace ewalk
