// Shared harness types: run options, per-pass results, and the metric
// computations every workload reports through.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broker/metrics.h"
#include "sfcarray/sfc_array.h"
#include "trace.h"

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool digest_only = false;
  std::string tmp_dir = ".";
};

enum class op_kind : std::uint8_t { subscribe, unsubscribe, publish };

// One timed client operation: its kind and its CLOCK_MONOTONIC interval.
struct op_record {
  op_kind kind = op_kind::subscribe;
  std::uint32_t episode = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// Everything one pass over a workload's episodes measured.
struct pass_result {
  std::vector<op_record> ops;   // every timed operation, in order
  double timed_s = 0;           // wall seconds of the timed phases
  std::vector<std::uint64_t> episode_start_ns;  // when each timed phase began
  std::vector<double> setup_s;  // one per episode
  std::uint64_t attempted = 0;  // preload and timed operations issued
  std::uint64_t failed = 0;     // wrong results, non-zero status, timeouts
  // Covering detection over the timed phases.
  std::uint64_t checks = 0;
  std::uint64_t hits = 0;
  std::uint64_t subscribes = 0;
  std::uint64_t sub_msgs = 0;  // subscription forwards between brokers
  // Summed over episodes, read at each episode's end.
  std::uint64_t live = 0;
  std::uint64_t footprint_bytes = 0;
  // The index's maintenance ledger, summed over episodes (index workload).
  subcover::maintenance_counters maintenance;
  // Summed network counters of the timed phases (daemon).
  subcover::network_metrics net;
  // Traced passes only: spans with `op` set to the containing operation.
  std::vector<span> spans;
  bool disturbed = false;  // daemon: reconnects or missed heartbeats
  bool truncated = false;  // the deadline stopped the pass early
};

class bench_workload {
 public:
  virtual ~bench_workload() = default;
  // FNV-1a digest of every pre-generated input (preload sets and streams).
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
  // Runs every episode once; `traced` decorates the covering indexes. No
  // operation starts once the timed phases have taken `max_timed_s` (a
  // guard against a host far slower than the nominal rates; the pass is
  // then marked truncated).
  virtual pass_result run(bool traced, double max_timed_s) = 0;
  // True when the workload runs brokers (TCP daemons) above the covering
  // index; false when the harness calls the index directly.
  [[nodiscard]] virtual bool runs_brokers() const = 0;
};

std::unique_ptr<bench_workload> make_index_churn(const options& o);
std::unique_ptr<bench_workload> make_daemon(const options& o);

// Seed of episode `i` of a run seeded with `seed` (splitmix64 mix).
std::uint64_t episode_seed(std::uint64_t seed, std::uint64_t i);
// Operations one run issues: `per_second` nominal ops scaled by --seconds,
// split evenly over `episodes`, at least 16 per episode.
std::size_t ops_per_episode(const options& o, double per_second, std::size_t episodes);

// Incremental FNV-1a over input bytes.
struct digest64 {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v);
};

// Sets `op` on each span to the 1-based index of the operation whose
// interval contains it (ops are sequential and sorted by start).
void attribute_spans(const std::vector<op_record>& ops, std::vector<span>& spans);

// `ops_per_s` and the p50 latencies are medians over this many groups of
// consecutive timed operations, so a burst of host noise moves one or two
// groups instead of the whole run. p99 latencies pool every sample of the
// run: a group holds too few for its own tail.
inline constexpr std::size_t kGroups = 5;

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count or "n/a" in the readable table
  // Printed in the readable table but not a JSON metric: failed_op_share
  // (always 0, carried by the JSON's `failed`), and the unsubscribe and
  // publish p99 (not steady on daemon_sensor; see README.md).
  bool table_only = false;
};

std::vector<metric> end_to_end_metrics(const pass_result& r);
std::vector<metric> per_layer_metrics(const pass_result& traced, const pass_result& untraced,
                                      bool runs_brokers);

}  // namespace perfbench
