// index_churn_2d: the covering library alone on the paper's 2-attribute
// space. Each episode bulk-loads 100k Zipf-centred, wildcard-free
// subscriptions into a default sfc_covering_index, then replays a seeded
// churn_gen stream (uniform victims) against it:
//   subscribe   find_covering(eps) then insert
//   unsubscribe erase
//   publish     find_covering(eps) on the event's point rectangle — the
//               index's answer to "does any live subscription match this
//               event?", so publish latency exists on every workload
// with maintain() every 512 operations (between operations, inside the
// timed wall clock).
#include <map>
#include <optional>

#include "bench.h"
#include "covering/sfc_covering_index.h"
#include "pubsub/matching.h"
#include "workload/churn_gen.h"
#include "workload/subscription_gen.h"

namespace perfbench {

namespace {

using namespace subcover;

constexpr std::size_t kEpisodes = 10;
constexpr std::size_t kPreload = 100'000;
constexpr std::size_t kMaintainEvery = 512;
constexpr double kEpsilon = 0.05;
constexpr double kOpsPerSecond = 450;  // nominal rate on the reference host

struct episode {
  std::vector<std::pair<sub_id, subscription>> preload;
  std::vector<workload::churn_op> ops;
  std::vector<subscription> points;  // publish ops: the event as a rectangle
};

class index_churn final : public bench_workload {
 public:
  explicit index_churn(const options& o)
      : schema_(workload::make_uniform_schema(2, 10)),
        seed_(o.seed),
        n_ops_(ops_per_episode(o, kOpsPerSecond, kEpisodes)) {
    options_.subscriptions.kind = workload::workload_kind::zipf;
    options_.subscriptions.wildcard_prob = 0.0;
    options_.victim_skew = 0.0;
    options_.warmup_subscriptions = kPreload;
  }

  // Episodes are generated one at a time, before each one's set-up, so only
  // one 100k preload set is in memory.
  [[nodiscard]] episode make_episode(std::size_t e) const {
    workload::churn_gen gen(schema_, options_, episode_seed(seed_, e));
    episode ep;
    ep.preload.reserve(kPreload);
    for (std::size_t i = 0; i < kPreload; ++i) {
      auto op = gen.next();
      ep.preload.emplace_back(op.id, std::move(op.sub));
    }
    ep.ops.reserve(n_ops_);
    ep.points.resize(n_ops_);
    for (std::size_t i = 0; i < n_ops_; ++i) {
      ep.ops.push_back(gen.next());
      const auto& op = ep.ops.back();
      if (op.kind != workload::churn_op::op_kind::publish) continue;
      std::vector<attr_range> r;
      for (int a = 0; a < op.ev.attribute_count(); ++a)
        r.push_back({op.ev.value(a), op.ev.value(a)});
      ep.points[i] = subscription(schema_, std::move(r));
    }
    return ep;
  }

  [[nodiscard]] std::uint64_t digest() const override {
    digest64 d;
    const auto add_sub = [&d](const subscription& s) {
      for (int a = 0; a < s.attribute_count(); ++a) {
        d.add(s.range(a).lo);
        d.add(s.range(a).hi);
      }
    };
    for (std::size_t e = 0; e < kEpisodes; ++e) {
      const episode ep = make_episode(e);
      for (const auto& [id, s] : ep.preload) {
        d.add(id);
        add_sub(s);
      }
      for (const auto& op : ep.ops) {
        d.add(static_cast<std::uint64_t>(op.kind));
        d.add(op.id);
        add_sub(op.sub);
        for (int a = 0; a < op.ev.attribute_count(); ++a) d.add(op.ev.value(a));
      }
    }
    return d.h;
  }

  [[nodiscard]] bool runs_brokers() const override { return false; }

  pass_result run(bool traced, double max_timed_s) override {
    pass_result r;
    r.ops.reserve(kEpisodes * n_ops_);
    span_log log;
    for (std::size_t e = 0; e < kEpisodes; ++e) {
      const episode ep = make_episode(e);
      if (r.timed_s > max_timed_s) {
        r.truncated = true;
        break;
      }
      std::unique_ptr<covering_index> idx = std::make_unique<sfc_covering_index>(schema_);
      const auto* sfc = static_cast<const sfc_covering_index*>(idx.get());
      if (traced) idx = std::make_unique<traced_index>(std::move(idx), log);

      const auto setup_start = now_ns();
      idx->insert_batch(ep.preload);
      r.setup_s.push_back(static_cast<double>(now_ns() - setup_start) / 1e9);

      // Results are kept for the check after the timed phase.
      std::vector<std::optional<sub_id>> hit(ep.ops.size());
      std::vector<char> erased(ep.ops.size(), 0);
      log.recording = traced;
      const auto start = now_ns();
      r.episode_start_ns.push_back(start);
      std::size_t executed = 0;
      for (std::size_t i = 0; i < ep.ops.size(); ++i) {
        const auto& op = ep.ops[i];
        op_record rec;
        rec.episode = static_cast<std::uint32_t>(e);
        rec.start_ns = now_ns();
        switch (op.kind) {
          case workload::churn_op::op_kind::subscribe:
            rec.kind = op_kind::subscribe;
            hit[i] = idx->find_covering(op.sub, kEpsilon);
            idx->insert(op.id, op.sub);
            break;
          case workload::churn_op::op_kind::unsubscribe:
            rec.kind = op_kind::unsubscribe;
            erased[i] = idx->erase(op.id) ? 1 : 0;
            break;
          case workload::churn_op::op_kind::publish:
            rec.kind = op_kind::publish;
            hit[i] = idx->find_covering(ep.points[i], kEpsilon);
            break;
        }
        rec.end_ns = now_ns();
        r.ops.push_back(rec);
        ++executed;
        if (executed % kMaintainEvery == 0) idx->maintain();
        if (r.timed_s + static_cast<double>(rec.end_ns - start) / 1e9 > max_timed_s) {
          r.truncated = true;
          break;
        }
      }
      r.timed_s += static_cast<double>(now_ns() - start) / 1e9;
      log.recording = false;

      // Replay the stream against a plain map: every returned id must be
      // live at that point and cover the query; every erase must succeed.
      std::map<sub_id, subscription> live(ep.preload.begin(), ep.preload.end());
      for (std::size_t i = 0; i < executed; ++i) {
        const auto& op = ep.ops[i];
        const auto check_hit = [&](const subscription& q) {
          if (!hit[i]) return true;
          const auto it = live.find(*hit[i]);
          return it != live.end() && it->second.covers(q);
        };
        bool ok = true;
        switch (op.kind) {
          case workload::churn_op::op_kind::subscribe:
            ok = check_hit(op.sub);
            ++r.subscribes;
            ++r.checks;
            if (hit[i]) {
              ++r.hits;
            } else {
              ++r.sub_msgs;  // the forward a broker would send over this link
            }
            live.emplace(op.id, op.sub);
            break;
          case workload::churn_op::op_kind::unsubscribe:
            ok = erased[i] != 0 && live.erase(op.id) == 1;
            break;
          case workload::churn_op::op_kind::publish:
            ok = check_hit(ep.points[i]) && (!hit[i] || matches(live.at(*hit[i]), op.ev));
            break;
        }
        if (!ok) ++r.failed;
      }
      if (idx->size() != live.size()) ++r.failed;
      r.attempted += 1 + executed;  // the bulk load counts as one
      r.live += live.size();
      r.footprint_bytes += idx->memory_footprint();
      r.maintenance += sfc->index().maintenance();
    }
    r.spans = std::move(log.spans);
    attribute_spans(r.ops, r.spans);
    return r;
  }

 private:
  schema schema_;
  std::uint64_t seed_;
  std::size_t n_ops_;
  workload::churn_gen_options options_;
};

}  // namespace

std::unique_ptr<bench_workload> make_index_churn(const options& o) {
  return std::make_unique<index_churn>(o);
}

}  // namespace perfbench
