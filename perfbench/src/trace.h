// Spans recorded from outside the library: a covering_index decorator that
// times every call into the covering layer.
//
// Every timestamp is CLOCK_MONOTONIC, which all processes on one host
// share, so a span recorded inside a daemon can be placed inside the client
// operation whose interval contains it (one operation is in flight at a
// time, so the containing operation is unique).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "broker/broker.h"
#include "covering/covering_index.h"

namespace perfbench {

// Nanoseconds on CLOCK_MONOTONIC.
std::uint64_t now_ns();

enum class span_kind : std::uint8_t {
  insert,
  insert_batch,
  erase,
  erase_batch,
  find_covering,
  maintain,
};

struct span {
  span_kind kind = span_kind::insert;
  bool found = false;  // find_covering only
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  // 1-based index of the timed operation whose interval contains the span;
  // 0 = none (set-up, or a maintenance pass between operations).
  std::uint64_t op = 0;
  subcover::covering_check_stats stats;  // find_covering only
};

// Spans of one process, kept in memory until the run ends.
struct span_log {
  bool recording = false;
  std::vector<span> spans;
};

// Forwards every call to `inner` and records a span around the six
// mutating/querying entry points while the log is recording.
class traced_index final : public subcover::covering_index {
 public:
  traced_index(std::unique_ptr<subcover::covering_index> inner, span_log& log);

  void insert(subcover::sub_id id, const subcover::subscription& s) override;
  void insert_batch(
      const std::vector<std::pair<subcover::sub_id, subcover::subscription>>& subs) override;
  bool erase(subcover::sub_id id) override;
  std::size_t erase_batch(const std::vector<subcover::sub_id>& ids) override;
  void maintain() override;
  [[nodiscard]] std::optional<subcover::sub_id> find_covering(
      const subcover::subscription& s, double epsilon,
      subcover::covering_check_stats* stats = nullptr) const override;
  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t memory_footprint() const override {
    return inner_->memory_footprint();
  }

 private:
  void record(span_kind k, std::uint64_t start) const;

  std::unique_ptr<subcover::covering_index> inner_;
  span_log& log_;
};

// Wraps `inner` so each index it builds is decorated with traced_index
// recording into `log`.
subcover::covering_index_factory traced_factory(subcover::covering_index_factory inner,
                                                span_log& log);

}  // namespace perfbench
