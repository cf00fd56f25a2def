// SIMD equivalence: the vectorized query pipeline must be byte-identical to
// its plain-loop implementations.
//
// The plan runs its level-frontier work (cube coalescing, extent lanes, the
// head argbest scan) through the runtime-dispatched u64 kernels of
// util/simd_kernels.h on d*k <= 64 universes, and through its own plain
// loops at the wide key widths. So the oracle is the same data indexed at a
// forced key_width::w128 / w512: for every curve, backend and tiering
// configuration the automatic (u64, dispatched) index must return the same
// hit and every query_stats field — physical probe and tier counters
// included — as the wide-width indexes.
//
// The dispatch tier itself is process-wide: the suite runs once at the
// probed tier and once more under SUBCOVER_FORCE_SCALAR (CI's forced-scalar
// job), so the same assertions pin the scalar and the vector backends.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dominance/dominance_index.h"
#include "util/random.h"

namespace subcover {
namespace {

point random_point(rng& gen, const universe& u) {
  point p(u.dims());
  for (int i = 0; i < u.dims(); ++i)
    p[i] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
  return p;
}

// Every deterministic field, physical counters included: two runs that
// differ only in key width must agree on all of them.
void expect_identical_stats(const query_stats& a, const query_stats& b, const std::string& what) {
  EXPECT_EQ(a.cubes_enumerated, b.cubes_enumerated) << what;
  EXPECT_EQ(a.runs_in_plan, b.runs_in_plan) << what;
  EXPECT_EQ(a.runs_probed, b.runs_probed) << what;
  EXPECT_EQ(a.frontier_batches, b.frontier_batches) << what;
  EXPECT_EQ(a.probes_restarted, b.probes_restarted) << what;
  EXPECT_EQ(a.probes_resumed, b.probes_resumed) << what;
  EXPECT_EQ(a.tier_cold_probes, b.tier_cold_probes) << what;
  EXPECT_EQ(a.tier_summary_answers, b.tier_summary_answers) << what;
  EXPECT_EQ(a.tier_blocks_decoded, b.tier_blocks_decoded) << what;
  EXPECT_EQ(a.tier_cold_hits, b.tier_cold_hits) << what;
  EXPECT_EQ(a.truncation_m, b.truncation_m) << what;
  EXPECT_EQ(a.volume_fraction_planned, b.volume_fraction_planned) << what;
  EXPECT_EQ(a.volume_fraction_searched, b.volume_fraction_searched) << what;
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << what;
}

// Builds one index per width over the same points; [0] is the automatic
// (u64, dispatched-kernel) index, the rest the plain-loop oracles.
std::vector<std::unique_ptr<dominance_index>> make_width_indexes(const universe& u,
                                                                 const dominance_options& base,
                                                                 const std::vector<point>& pts) {
  std::vector<std::unique_ptr<dominance_index>> out;
  for (const key_width w : {key_width::automatic, key_width::w128, key_width::w512}) {
    dominance_options o = base;
    o.width = w;
    out.push_back(std::make_unique<dominance_index>(u, o));
    for (std::size_t i = 0; i < pts.size(); ++i) out.back()->insert(pts[i], i);
  }
  EXPECT_EQ(out[0]->width(), key_width::w64);
  return out;
}

void expect_widths_agree(const std::vector<std::unique_ptr<dominance_index>>& idxs,
                         const point& x, double eps, const std::string& what) {
  query_stats s_auto;
  const auto r_auto = idxs[0]->query(x, eps, &s_auto);
  for (std::size_t k = 1; k < idxs.size(); ++k) {
    const std::string tag =
        what + " [w=" + std::to_string(static_cast<int>(idxs[k]->width())) + "]";
    query_stats s_wide;
    EXPECT_EQ(r_auto, idxs[k]->query(x, eps, &s_wide)) << tag;
    expect_identical_stats(s_auto, s_wide, tag);
  }
}

TEST(SimdEquivalence, DispatchedKernelsMatchWideWidthLoopsAcrossCurvesAndBackends) {
  // 24 key bits: the automatic width is u64, and the same universe is
  // representable at u128/u512, so the kernels and the plain loops see
  // identical data.
  const universe u(3, 8);
  rng gen(2024);
  std::vector<point> stored;
  for (int i = 0; i < 140; ++i) stored.push_back(random_point(gen, u));
  std::vector<point> queries;
  for (int q = 0; q < 24; ++q) queries.push_back(random_point(gen, u));

  for (const auto curve : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    for (const auto array : {sfc_array_kind::sorted_vector, sfc_array_kind::skiplist}) {
      dominance_options base;
      base.curve = curve;
      base.array = array;
      const auto idxs = make_width_indexes(u, base, stored);
      for (const double eps : {0.0, 0.05, 0.35}) {
        for (const auto& x : queries) {
          const std::string what = std::string(curve_kind_name(curve)) +
                                   " array=" + std::to_string(static_cast<int>(array)) +
                                   " eps=" + std::to_string(eps) + " x=" + x.to_string();
          expect_widths_agree(idxs, x, eps, what);
        }
      }
    }
  }
}

TEST(SimdEquivalence, DispatchedKernelsComposeWithTieringAndSkiplist) {
  const universe u(4, 5);
  rng gen(55);
  std::vector<point> stored;
  for (int i = 0; i < 200; ++i) stored.push_back(random_point(gen, u));
  for (const auto array : {sfc_array_kind::skiplist, sfc_array_kind::sorted_vector}) {
    dominance_options base;
    base.array = array;
    base.tier_hot_capacity = 32;  // force cold-tier traffic through the
    base.tier_block_entries = 8;  // vectorized envelope scans
    const auto idxs = make_width_indexes(u, base, stored);
    for (const double eps : {0.0, 0.1}) {
      for (int q = 0; q < 25; ++q) {
        const point x = random_point(gen, u);
        const std::string what = "array=" + std::to_string(static_cast<int>(array)) +
                                 " eps=" + std::to_string(eps) + " x=" + x.to_string();
        expect_widths_agree(idxs, x, eps, what);
      }
    }
  }
}

}  // namespace
}  // namespace subcover
