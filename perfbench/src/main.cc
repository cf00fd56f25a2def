// perfbench: the repository benchmark. One closed-loop client drives one
// workload; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tmp-dir DIR] [--digest-only]
//
// --trace 0 times the workload and prints the end-to-end metrics.
// --trace 1 runs it twice on identical inputs — plain, then with every
// covering index decorated by a span recorder — and prints the per-layer
// metrics plus the tracing overhead. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using perfbench::metric;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload index_churn_2d|daemon_sensor"
               " --seed N --seconds S --trace 0|1 [--tmp-dir DIR] [--digest-only]\n";
  std::exit(2);
}

perfbench::options parse(int argc, char** argv) {
  perfbench::options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--tmp-dir") {
      o.tmp_dir = value();
    } else if (a == "--digest-only") {
      o.digest_only = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

void print_table(const char* title, const std::vector<metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms)
    std::printf("  %-36s %16.4f %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& m : ms) {
    if (m.table_only) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(),
                m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const perfbench::options o = parse(argc, argv);
  try {
    std::unique_ptr<perfbench::bench_workload> w;
    if (o.workload == "index_churn_2d") {
      w = perfbench::make_index_churn(o);
    } else if (o.workload == "daemon_sensor") {
      w = perfbench::make_daemon(o);
    } else {
      usage("unknown workload '" + o.workload + "'");
    }
    std::printf("workload %s seed %llu seconds %g trace %d\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
    if (o.digest_only) {
      std::printf("stream_digest %016llx\n", static_cast<unsigned long long>(w->digest()));
      return 0;
    }

    // A pass stops issuing operations after twice --seconds of them.
    const double max_timed_s = 2 * o.seconds;
    const perfbench::pass_result plain = w->run(false, max_timed_s);
    const auto e2e = perfbench::end_to_end_metrics(plain);
    print_table("end-to-end (untraced pass)", e2e);
    std::uint64_t attempted = plain.attempted;
    std::uint64_t failed = plain.failed;
    bool disturbed = plain.disturbed;
    bool truncated = plain.truncated;
    std::vector<metric> out = e2e;
    if (o.trace) {
      const perfbench::pass_result traced = w->run(true, max_timed_s);
      out = perfbench::per_layer_metrics(traced, plain, w->runs_brokers());
      print_table("per-layer (traced pass)", out);
      attempted += traced.attempted;
      failed += traced.failed;
      disturbed = disturbed || traced.disturbed;
      truncated = truncated || traced.truncated;
    }
    if (truncated)
      std::printf("TRUNCATED: the deadline stopped the run before its stream ended\n");
    if (disturbed)
      std::printf("DISTURBED: the daemons reconnected or missed heartbeats during the run\n");
    print_json(failed == 0 && attempted > 0, attempted, failed, out);
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
