#include "trace.h"

#include <time.h>

namespace perfbench {

using namespace subcover;

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

traced_index::traced_index(std::unique_ptr<covering_index> inner, span_log& log)
    : covering_index(inner->message_schema()), inner_(std::move(inner)), log_(log) {}

void traced_index::record(span_kind k, std::uint64_t start) const {
  if (!log_.recording) return;
  span sp;
  sp.kind = k;
  sp.start_ns = start;
  sp.end_ns = now_ns();
  log_.spans.push_back(sp);
}

void traced_index::insert(sub_id id, const subscription& s) {
  const auto t = now_ns();
  inner_->insert(id, s);
  record(span_kind::insert, t);
}

void traced_index::insert_batch(const std::vector<std::pair<sub_id, subscription>>& subs) {
  const auto t = now_ns();
  inner_->insert_batch(subs);
  record(span_kind::insert_batch, t);
}

bool traced_index::erase(sub_id id) {
  const auto t = now_ns();
  const bool ok = inner_->erase(id);
  record(span_kind::erase, t);
  return ok;
}

std::size_t traced_index::erase_batch(const std::vector<sub_id>& ids) {
  const auto t = now_ns();
  const auto n = inner_->erase_batch(ids);
  record(span_kind::erase_batch, t);
  return n;
}

void traced_index::maintain() {
  const auto t = now_ns();
  inner_->maintain();
  record(span_kind::maintain, t);
}

std::optional<sub_id> traced_index::find_covering(const subscription& s, double epsilon,
                                                  covering_check_stats* stats) const {
  covering_check_stats local;
  const auto t = now_ns();
  const auto hit = inner_->find_covering(s, epsilon, &local);
  const auto end = now_ns();
  if (stats != nullptr) *stats = local;
  if (log_.recording) {
    span sp;
    sp.kind = span_kind::find_covering;
    sp.found = hit.has_value();
    sp.start_ns = t;
    sp.end_ns = end;
    sp.stats = local;
    log_.spans.push_back(sp);
  }
  return hit;
}

covering_index_factory traced_factory(covering_index_factory inner, span_log& log) {
  return [inner = std::move(inner), &log](const schema& s) {
    return std::unique_ptr<covering_index>(std::make_unique<traced_index>(inner(s), log));
  };
}

}  // namespace perfbench
