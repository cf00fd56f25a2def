#include "bench.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t episode_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (i + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t ops_per_episode(const options& o, double per_second, std::size_t episodes) {
  const double total = std::ceil(per_second * o.seconds);
  return std::max<std::size_t>(16, static_cast<std::size_t>(total) / episodes);
}

void digest64::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

void attribute_spans(const std::vector<op_record>& ops, std::vector<span>& spans) {
  for (auto& sp : spans) {
    sp.op = 0;
    const auto it = std::upper_bound(
        ops.begin(), ops.end(), sp.start_ns,
        [](std::uint64_t t, const op_record& o) { return t < o.start_ns; });
    if (it == ops.begin()) continue;
    const auto k = static_cast<std::size_t>(it - ops.begin()) - 1;
    if (sp.end_ns <= ops[k].end_ns) sp.op = k + 1;
  }
}

namespace {

// Linear interpolation between order statistics; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

std::vector<metric> end_to_end_metrics(const pass_result& r) {
  // Split the timed operations into kGroups consecutive groups. Each op is
  // charged the wall time since the previous op of its episode ended (or
  // since the episode's timed phase began), so the groups' seconds add up
  // to the timed wall clock, maintenance passes included.
  const std::size_t n = r.ops.size();
  const std::size_t groups = std::max<std::size_t>(1, std::min(kGroups, n));
  std::vector<double> seconds(groups, 0), ops(groups, 0);
  std::vector<std::vector<double>> lat[3];
  for (auto& l : lat) l.resize(groups);
  std::vector<double> all[3];
  for (std::size_t i = 0; i < n; ++i) {
    const auto& o = r.ops[i];
    const auto g = i * groups / n;
    const auto k = static_cast<std::size_t>(o.kind);
    const bool first = i == 0 || r.ops[i - 1].episode != o.episode;
    const std::uint64_t from = first ? r.episode_start_ns[o.episode] : r.ops[i - 1].end_ns;
    seconds[g] += static_cast<double>(o.end_ns - std::min(from, o.end_ns)) / 1e9;
    ops[g] += 1;
    lat[k][g].push_back(us(o.end_ns - o.start_ns));
    all[k].push_back(us(o.end_ns - o.start_ns));
  }
  // Median over the groups that have samples (`has(g)`) of `per_group(g)`.
  const auto median_over_groups = [&](auto&& has, auto&& per_group) {
    std::vector<double> v;
    for (std::size_t g = 0; g < groups; ++g)
      if (has(g)) v.push_back(per_group(g));
    return percentile(std::move(v), 0.5);
  };

  std::vector<metric> m;
  m.push_back({"setup_s", percentile(r.setup_s, 0.5), "s", samples(r.setup_s.size())});
  m.push_back({"ops_per_s",
               median_over_groups([&](std::size_t g) { return ops[g] > 0; },
                                  [&](std::size_t g) { return ratio(ops[g], seconds[g]); }),
               "1/s", samples(n)});
  const std::pair<op_kind, const char*> kinds[] = {{op_kind::subscribe, "subscribe"},
                                                   {op_kind::unsubscribe, "unsubscribe"},
                                                   {op_kind::publish, "publish"}};
  for (const auto& [k, name] : kinds) {
    const auto& by_group = lat[static_cast<std::size_t>(k)];
    const auto& pooled = all[static_cast<std::size_t>(k)];
    m.push_back({std::string(name) + "_p50_us",
                 median_over_groups([&](std::size_t g) { return !by_group[g].empty(); },
                                    [&](std::size_t g) { return percentile(by_group[g], 0.5); }),
                 "us", samples(pooled.size())});
    m.push_back({std::string(name) + "_p99_us", percentile(pooled, 0.99), "us",
                 samples(pooled.size()), k != op_kind::subscribe});
  }
  m.push_back({"uncovered_share",
               ratio(static_cast<double>(r.checks - r.hits), static_cast<double>(r.checks)),
               "ratio", samples(r.checks)});
  m.push_back({"sub_msgs_per_subscribe",
               ratio(static_cast<double>(r.sub_msgs), static_cast<double>(r.subscribes)),
               "msgs", samples(r.subscribes)});
  m.push_back({"bytes_per_sub",
               ratio(static_cast<double>(r.footprint_bytes), static_cast<double>(r.live)), "B",
               ""});
  m.push_back({"failed_op_share",
               ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)), "ratio",
               samples(r.attempted), true});
  return m;
}

std::vector<metric> per_layer_metrics(const pass_result& t, const pass_result& untraced,
                                      bool runs_brokers) {
  const auto& ops = t.ops;
  std::vector<std::uint64_t> covering_ns(ops.size(), 0);
  std::vector<double> check_us, insert_us, erase_us, query_us;
  double maintain_ms = 0;
  std::uint64_t checks = 0, hits = 0, sub_checks = 0, budget = 0;
  std::uint64_t check_ns = 0, query_ns = 0;
  double cubes = 0, runs = 0, volume = 0, probed = 0, restarts = 0, resumed = 0, batches = 0;
  for (const auto& sp : t.spans) {
    const std::uint64_t dur = sp.end_ns - sp.start_ns;
    if (sp.kind == span_kind::maintain) maintain_ms += static_cast<double>(dur) / 1e6;
    if (sp.op == 0) continue;
    const op_kind k = ops[sp.op - 1].kind;
    covering_ns[sp.op - 1] += dur;
    switch (sp.kind) {
      case span_kind::insert:
        insert_us.push_back(us(dur));
        break;
      case span_kind::erase:
        erase_us.push_back(us(dur));
        break;
      case span_kind::find_covering: {
        if (k == op_kind::publish) break;  // index workload: event point queries
        const auto& q = sp.stats.dominance;
        ++checks;
        hits += sp.found ? 1 : 0;
        sub_checks += k == op_kind::subscribe ? 1 : 0;
        budget += q.budget_exhausted ? 1 : 0;
        check_us.push_back(us(dur));
        query_us.push_back(us(q.elapsed_ns));
        check_ns += dur;
        query_ns += std::min<std::uint64_t>(q.elapsed_ns, dur);
        cubes += static_cast<double>(q.cubes_enumerated);
        runs += static_cast<double>(q.runs_in_plan);
        volume += static_cast<double>(q.volume_fraction_searched);
        probed += static_cast<double>(q.runs_probed);
        restarts += static_cast<double>(q.probes_restarted);
        resumed += static_cast<double>(q.probes_resumed);
        batches += static_cast<double>(q.frontier_batches);
        break;
      }
      default:
        break;
    }
  }
  std::uint64_t n_sub = 0, n_unsub = 0, n_pub = 0;
  std::uint64_t sub_ns = 0, unsub_ns = 0, sub_cov_ns = 0, unsub_cov_ns = 0;
  std::vector<double> self_us[3];
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint64_t dur = ops[i].end_ns - ops[i].start_ns;
    const auto k = static_cast<std::size_t>(ops[i].kind);
    self_us[k].push_back(us(dur - std::min(dur, covering_ns[i])));
    switch (ops[i].kind) {
      case op_kind::subscribe:
        ++n_sub, sub_ns += dur, sub_cov_ns += covering_ns[i];
        break;
      case op_kind::unsubscribe:
        ++n_unsub, unsub_ns += dur, unsub_cov_ns += covering_ns[i];
        break;
      case op_kind::publish:
        ++n_pub;
        break;
    }
  }
  const double c = static_cast<double>(checks);
  const auto per_check = [&](double v) { return ratio(v, c); };
  const std::string nc = samples(checks);
  std::vector<metric> m = {
      {"covering.check_us_p50", percentile(check_us, 0.5), "us", nc},
      {"covering.check_us_p99", percentile(check_us, 0.99), "us", nc},
      {"covering.insert_us_p50", percentile(insert_us, 0.5), "us", samples(insert_us.size())},
      {"covering.erase_us_p50", percentile(erase_us, 0.5), "us", samples(erase_us.size())},
      {"covering.erase_us_p99", percentile(erase_us, 0.99), "us", samples(erase_us.size())},
      {"covering.maintain_ms_total", maintain_ms, "ms", ""},
      {"covering.checks", c, "count", ""},
      {"covering.hits", static_cast<double>(hits), "count", ""},
      {"covering.checks_per_subscribe",
       ratio(static_cast<double>(sub_checks), static_cast<double>(n_sub)), "count", ""},
      {"covering.share_of_subscribe",
       ratio(static_cast<double>(sub_cov_ns), static_cast<double>(sub_ns)), "ratio", ""},
      {"covering.share_of_unsubscribe",
       ratio(static_cast<double>(unsub_cov_ns), static_cast<double>(unsub_ns)), "ratio", ""},
      {"covering.self_share",
       ratio(static_cast<double>(check_ns - query_ns), static_cast<double>(check_ns)), "ratio",
       ""},
      {"dominance.query_us_p50", percentile(query_us, 0.5), "us", nc},
      {"dominance.cubes", cubes, "count", ""},
      {"dominance.cubes_per_check", per_check(cubes), "count", ""},
      {"dominance.runs_per_check", per_check(runs), "count", ""},
      {"dominance.budget_exhausted_share", per_check(static_cast<double>(budget)), "ratio", ""},
      {"dominance.volume_searched_mean", per_check(volume), "ratio", ""},
      {"dominance.useful_probe_share", ratio(static_cast<double>(hits), probed), "ratio", ""},
      {"sfcarray.runs_probed", probed, "count", ""},
      {"sfcarray.runs_probed_per_check", per_check(probed), "count", ""},
      {"sfcarray.restarts_per_check", per_check(restarts), "count", ""},
      {"sfcarray.resumed_per_check", per_check(resumed), "count", ""},
      {"sfcarray.frontier_batches_per_check", per_check(batches), "count", ""},
  };

  // Layers a workload does not run report 0, marked n/a in the table.
  const auto layer = [&m](bool runs, const char* name, double v, const char* unit) {
    m.push_back({name, runs ? v : 0, unit, runs ? "" : "n/a"});
  };
  const auto& net = t.net;
  const bool tcp = runs_brokers;
  // The maintenance ledger is read from the index the harness holds, which
  // only the index workload does.
  layer(!tcp, "sfcarray.tombstones", static_cast<double>(t.maintenance.tombstones_added),
        "count");
  layer(!tcp, "sfcarray.purged", static_cast<double>(t.maintenance.tombstones_purged), "count");
  layer(!tcp, "sfcarray.compactions", static_cast<double>(t.maintenance.compactions), "count");
  layer(tcp, "broker.sub_msgs", static_cast<double>(net.subscription_messages), "count");
  layer(tcp, "broker.event_msgs", static_cast<double>(net.event_messages), "count");
  layer(tcp, "broker.reforwards_per_unsubscribe",
        ratio(static_cast<double>(net.reforwards), static_cast<double>(n_unsub)), "count");
  layer(tcp, "broker.event_msgs_per_publish",
        ratio(static_cast<double>(net.event_messages), static_cast<double>(n_pub)), "count");
  layer(tcp, "broker.deliveries_per_publish",
        ratio(static_cast<double>(net.deliveries), static_cast<double>(n_pub)), "count");

  const auto self = [&](op_kind k, double p) {
    return percentile(self_us[static_cast<std::size_t>(k)], p);
  };
  const double n_ops = static_cast<double>(ops.size());
  layer(tcp, "transport.subscribe_self_us_p50", self(op_kind::subscribe, 0.5), "us");
  layer(tcp, "transport.unsubscribe_self_us_p50", self(op_kind::unsubscribe, 0.5), "us");
  layer(tcp, "transport.publish_self_us_p50", self(op_kind::publish, 0.5), "us");
  layer(tcp, "transport.publish_self_us_p99", self(op_kind::publish, 0.99), "us");
  layer(tcp, "transport.reconnects", static_cast<double>(net.reconnects), "count");
  layer(tcp, "transport.heartbeats_missed", static_cast<double>(net.heartbeats_missed), "count");
  layer(tcp, "transport.partial_writes", static_cast<double>(net.partial_writes), "count");
  layer(tcp, "wire.bytes_per_op", ratio(static_cast<double>(net.bytes_on_wire), n_ops), "B");
  layer(tcp, "wal.bytes", static_cast<double>(net.wal_bytes), "B");
  layer(tcp, "wal.bytes_per_op", ratio(static_cast<double>(net.wal_bytes), n_ops), "B");

  const double plain = ratio(static_cast<double>(untraced.ops.size()), untraced.timed_s);
  const double traced = ratio(n_ops, t.timed_s);
  m.push_back({"trace.ops_per_s_untraced", plain, "1/s", ""});
  m.push_back({"trace.ops_per_s_traced", traced, "1/s", ""});
  m.push_back({"trace.overhead_share", plain == 0 ? 0 : 1 - traced / plain, "ratio", ""});
  return m;
}

}  // namespace perfbench
