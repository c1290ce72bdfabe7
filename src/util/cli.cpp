#include "util/cli.hpp"

#include <cstdio>

#include "util/thread_pool.hpp"

namespace ewalk {

const std::vector<OptionAlias>& run_option_aliases() {
  static const std::vector<OptionAlias> aliases = {
      {"walk", "process"},
      {"generator", "graph"},
  };
  return aliases;
}

void canonicalize_run_params(ParamMap& params) {
  for (const OptionAlias& a : run_option_aliases()) {
    if (!params.has(a.alias)) continue;
    const std::string value = params.get(a.alias, "");
    if (params.has(a.canonical) && params.get(a.canonical, "") != value)
      throw std::invalid_argument(
          "--" + a.alias + " is a synonym of --" + a.canonical +
          ", but both were given with different values ('" + value + "' vs '" +
          params.get(a.canonical, "") + "')");
    params.set(a.canonical, value);
    params.erase(a.alias);
  }
}

Cli::Cli(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      params_.set(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      params_.set(arg, argv[++i]);
    } else {
      params_.set(arg, "true");
    }
  }
  canonicalize_run_params(params_);
}

std::uint32_t resolve_cli_threads(const Cli& cli, std::int64_t default_threads) {
  const std::int64_t requested = cli.get_int("threads", default_threads);
  if (requested < 0)
    throw std::invalid_argument(
        "--threads must be >= 0 (0 = all hardware threads)");
  bool clamped = false;
  const std::uint32_t threads =
      resolve_thread_count(static_cast<std::uint64_t>(requested), &clamped);
  if (clamped)
    std::fprintf(stderr,
                 "warning: --threads %lld exceeds the %u hardware threads; "
                 "clamped to %u\n",
                 static_cast<long long>(requested),
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
