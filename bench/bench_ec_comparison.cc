// §7 quantified: why Ursa chose replication over erasure coding.
//
// "Compared to replication, EC optimizes for capacity at the expense of I/O
// performance. Since (HDD) capacity is the least valuable resource in a
// hybrid architecture, we prefer Ursa to PariX."
//
// This bench measures, at the storage level on identical SSD device models:
//   * 3-way replication (one write per replica, all parallel)
//   * EC(4+2), read-modify-write partial writes (Sheepdog-style RMW cost)
//   * EC(4+2), parity logging (Chan et al.: sequential delta appends)
// for random 4 KB writes and for full-stripe writes, plus each scheme's
// capacity overhead — making the §7 trade-off explicit.
//
// A second section benchmarks the GF(256) kernel tiers themselves (real
// wall-clock, no sim): single multiply-accumulate and fused multi-parity
// encode per dispatch tier (scalar / portable / ssse3 / avx2), plus fused
// reconstruction — the data-plane cost EC adds over replication's memcpy.
// Emits BENCH_ec_comparison.json (or --metrics-json=<path>) for the CI
// bench-smoke regression gate.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/core/metrics.h"
#include "src/ec/ec_stripe_store.h"
#include "src/ec/gf256_kernels.h"
#include "src/ec/reed_solomon.h"
#include "src/storage/ssd_model.h"

using namespace ursa;

namespace {

struct SchemeResult {
  std::string name;
  double small_iops;
  double small_lat_us;
  double overwrite_iops;  // hot 4 MB span: mostly overwrites
  double full_mbps;
  double capacity_overhead;
};

constexpr uint64_t kUnit = 64 * kKiB;
constexpr uint64_t kRows = 512;
constexpr Nanos kMeasure = sec(2);

// Closed-loop driver at qd16 over a generic async write function.
template <typename WriteFn>
std::pair<double, double> DriveSmallWrites(sim::Simulator* sim, WriteFn write, uint64_t span,
                                           uint64_t seed = 7) {
  Rng rng(seed);
  uint64_t completed = 0;
  Histogram lat;
  Nanos stop = sim->Now() + kMeasure;
  std::function<void()> issue = [&]() {
    if (sim->Now() >= stop) {
      return;
    }
    uint64_t offset = rng.Uniform((span - 4096) / 4096) * 4096;
    Nanos t0 = sim->Now();
    write(offset, 4096, [&, t0](const Status& s) {
      if (s.ok()) {
        ++completed;
        lat.Record(static_cast<int64_t>(ToUsec(sim->Now() - t0)));
      }
      issue();
    });
  };
  for (int i = 0; i < 16; ++i) {
    issue();
  }
  sim->RunUntil(stop + msec(100));
  return {static_cast<double>(completed) / ToSec(kMeasure), lat.Mean()};
}

template <typename WriteFn>
double DriveFullWrites(sim::Simulator* sim, WriteFn write, uint64_t stripe_bytes,
                       uint64_t span) {
  uint64_t bytes = 0;
  uint64_t cursor = 0;
  Nanos stop = sim->Now() + kMeasure;
  std::function<void()> issue = [&]() {
    if (sim->Now() >= stop) {
      return;
    }
    uint64_t offset = cursor % (span - stripe_bytes + stripe_bytes);
    if (offset + stripe_bytes > span) {
      cursor = 0;
      offset = 0;
    }
    cursor += stripe_bytes;
    write(offset, stripe_bytes, [&](const Status& s) {
      if (s.ok()) {
        bytes += stripe_bytes;
      }
      issue();
    });
  };
  for (int i = 0; i < 4; ++i) {
    issue();
  }
  sim->RunUntil(stop + msec(100));
  return static_cast<double>(bytes) / ToSec(kMeasure) / 1e6;
}

SchemeResult RunReplication() {
  sim::Simulator sim;
  std::vector<std::unique_ptr<storage::SsdModel>> ssds;
  for (int i = 0; i < 3; ++i) {
    storage::SsdParams p;
    p.capacity = kRows * kUnit * 4 + kMiB;
    ssds.push_back(std::make_unique<storage::SsdModel>(&sim, p));
  }
  uint64_t span = kRows * kUnit * 4;
  auto write = [&](uint64_t offset, uint64_t len, storage::IoCallback done) {
    auto joiner = std::make_shared<int>(3);
    auto shared = std::make_shared<storage::IoCallback>(std::move(done));
    for (auto& ssd : ssds) {
      storage::IoRequest req;
      req.type = storage::IoType::kWrite;
      req.offset = offset;
      req.length = len;
      req.done = [joiner, shared](const Status& s) {
        if (--*joiner == 0) {
          (*shared)(s);
        }
      };
      ssd->Submit(std::move(req));
    }
  };
  SchemeResult r;
  r.name = "3-replication";
  std::tie(r.small_iops, r.small_lat_us) = DriveSmallWrites(&sim, write, span);
  r.overwrite_iops = DriveSmallWrites(&sim, write, 4 * kMiB, 11).first;
  r.full_mbps = DriveFullWrites(&sim, write, 4 * kUnit, span);
  r.capacity_overhead = 3.0;
  return r;
}

SchemeResult RunEc(ec::PartialWriteMode mode, const char* name) {
  sim::Simulator sim;
  ec::EcStripeConfig config;
  config.k = 4;
  config.m = 2;
  config.stripe_unit = kUnit;
  config.mode = mode;
  config.parity_log_bytes = 256 * kMiB;
  std::vector<std::unique_ptr<storage::SsdModel>> ssds;
  std::vector<storage::BlockDevice*> devices;
  for (int i = 0; i < 6; ++i) {
    storage::SsdParams p;
    p.capacity = kRows * kUnit + config.parity_log_bytes + kMiB;
    ssds.push_back(std::make_unique<storage::SsdModel>(&sim, p));
    devices.push_back(ssds.back().get());
  }
  ec::EcStripeStore store(&sim, devices, kRows, config);
  uint64_t span = store.logical_size();
  auto write = [&](uint64_t offset, uint64_t len, storage::IoCallback done) {
    store.Write(offset, len, {}, std::move(done));
  };
  SchemeResult r;
  r.name = name;
  std::tie(r.small_iops, r.small_lat_us) = DriveSmallWrites(&sim, write, span);
  // Hot 4 MB span: most writes are overwrites — PariX's speculative case.
  r.overwrite_iops = DriveSmallWrites(&sim, write, 4 * kMiB, 11).first;
  r.full_mbps = DriveFullWrites(&sim, write, 4 * kUnit, span);
  r.capacity_overhead = 6.0 / 4.0;
  return r;
}

// ---------------------------------------------------------------------------
// GF(256) kernel microbenchmarks (wall-clock)
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr std::array<ec::GfKernelTier, 4> kAllTiers = {
    ec::GfKernelTier::kScalar, ec::GfKernelTier::kPortable, ec::GfKernelTier::kSsse3,
    ec::GfKernelTier::kAvx2};

// Iteration counts per tier: scalar runs ~1-2 orders of magnitude slower, so
// it gets fewer passes for comparable (and still stable) wall time.
int PassesFor(ec::GfKernelTier tier, int scalar_passes, int fast_passes) {
  return tier == ec::GfKernelTier::kScalar ? scalar_passes : fast_passes;
}

struct TierGbps {
  std::array<double, 4> gbps = {0, 0, 0, 0};  // indexed by tier enum; 0 = n/a
  double at(ec::GfKernelTier t) const { return gbps[static_cast<size_t>(t)]; }
};

// out ^= c * in over a shard-sized buffer: the single-destination primitive
// (parity RMW / parity-log delta scaling path).
TierGbps BenchMulAccum(size_t len) {
  Rng rng(11);
  std::vector<uint8_t> in(len);
  std::vector<uint8_t> out(len, 0);
  for (auto& b : in) {
    b = static_cast<uint8_t>(rng.Uniform(256));
  }
  ec::GfMulTable table;
  ec::GfBuildMulTable(0x57, &table);
  TierGbps result;
  for (ec::GfKernelTier tier : kAllTiers) {
    if (!ec::GfKernelTierAvailable(tier)) {
      continue;
    }
    ec::GfMulAccumWith(tier, table, 0x57, in.data(), out.data(), len);  // warm up
    int passes = PassesFor(tier, 256, 4096);
    auto t0 = Clock::now();
    for (int i = 0; i < passes; ++i) {
      ec::GfMulAccumWith(tier, table, 0x57, in.data(), out.data(), len);
    }
    auto t1 = Clock::now();
    result.gbps[static_cast<size_t>(tier)] =
        static_cast<double>(len) * passes / Seconds(t0, t1) / 1e9;
  }
  return result;
}

// Full fused encode: k data shards -> m parities in one EncodeWith call.
// Throughput is counted in DATA bytes (k * len per encode), the figure that
// compares against replication's per-byte cost.
TierGbps BenchEncode(int k, int m, size_t len) {
  Rng rng(13);
  std::vector<std::vector<uint8_t>> shards(k + m, std::vector<uint8_t>(len));
  std::vector<const uint8_t*> data(k);
  std::vector<uint8_t*> parity(m);
  for (int d = 0; d < k; ++d) {
    for (auto& b : shards[d]) {
      b = static_cast<uint8_t>(rng.Uniform(256));
    }
    data[d] = shards[d].data();
  }
  for (int p = 0; p < m; ++p) {
    parity[p] = shards[k + p].data();
  }
  ec::ReedSolomon rs(k, m);
  TierGbps result;
  for (ec::GfKernelTier tier : kAllTiers) {
    if (!ec::GfKernelTierAvailable(tier)) {
      continue;
    }
    rs.EncodeWith(tier, data, parity, len);  // warm up
    int passes = PassesFor(tier, 48, 768);
    auto t0 = Clock::now();
    for (int i = 0; i < passes; ++i) {
      rs.EncodeWith(tier, data, parity, len);
    }
    auto t1 = Clock::now();
    result.gbps[static_cast<size_t>(tier)] =
        static_cast<double>(len) * k * passes / Seconds(t0, t1) / 1e9;
  }
  return result;
}

// Fused reconstruction of the m worst-case losses (first m data shards) from
// the k survivors, through a precompiled DecodePlan. Throughput counts the
// k*len survivor bytes streamed per call, matching the encode accounting.
TierGbps BenchReconstruct(int k, int m, size_t len) {
  Rng rng(17);
  std::vector<std::vector<uint8_t>> shards(k + m, std::vector<uint8_t>(len));
  std::vector<const uint8_t*> data(k);
  std::vector<uint8_t*> parity(m);
  for (int d = 0; d < k; ++d) {
    for (auto& b : shards[d]) {
      b = static_cast<uint8_t>(rng.Uniform(256));
    }
    data[d] = shards[d].data();
  }
  for (int p = 0; p < m; ++p) {
    parity[p] = shards[k + p].data();
  }
  ec::ReedSolomon rs(k, m);
  rs.Encode(data, parity, len);

  std::vector<bool> present(k + m, true);
  std::vector<int> wanted;
  for (int s = 0; s < m; ++s) {
    present[s] = false;
    wanted.push_back(s);
  }
  ec::ReedSolomon::DecodePlan plan;
  if (!rs.PlanReconstruct(present, wanted, &plan).ok()) {
    return {};
  }
  std::vector<const uint8_t*> view(k + m, nullptr);
  for (int s = m; s < k + m; ++s) {
    view[s] = shards[s].data();
  }
  std::vector<std::vector<uint8_t>> rebuilt(m, std::vector<uint8_t>(len));
  std::vector<uint8_t*> out(k + m, nullptr);
  for (int s = 0; s < m; ++s) {
    out[s] = rebuilt[s].data();
  }
  TierGbps result;
  for (ec::GfKernelTier tier : kAllTiers) {
    if (!ec::GfKernelTierAvailable(tier)) {
      continue;
    }
    rs.ReconstructWith(plan, view, out, len, tier);  // warm up
    int passes = PassesFor(tier, 48, 768);
    auto t0 = Clock::now();
    for (int i = 0; i < passes; ++i) {
      rs.ReconstructWith(plan, view, out, len, tier);
    }
    auto t1 = Clock::now();
    result.gbps[static_cast<size_t>(tier)] =
        static_cast<double>(len) * k * passes / Seconds(t0, t1) / 1e9;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Replication vs erasure coding (the paper's §7 trade-off) ===\n\n");

  std::vector<SchemeResult> results;
  results.push_back(RunReplication());
  results.push_back(RunEc(ec::PartialWriteMode::kReadModifyWrite, "EC(4+2) RMW"));
  results.push_back(RunEc(ec::PartialWriteMode::kParityLogging, "EC(4+2) parity-log"));
  results.push_back(RunEc(ec::PartialWriteMode::kParixSpeculative, "EC(4+2) PariX"));

  core::Table table({"Scheme", "4K write IOPS", "4K write us", "4K overwrite IOPS",
                     "full-stripe MB/s", "capacity x"});
  for (const SchemeResult& r : results) {
    table.AddRow({r.name, core::Table::Int(r.small_iops), core::Table::Num(r.small_lat_us, 0),
                  core::Table::Int(r.overwrite_iops), core::Table::Int(r.full_mbps),
                  core::Table::Num(r.capacity_overhead, 2)});
  }
  table.Print();

  bool ok = true;
  auto check = [&ok](bool cond, const char* what) {
    std::printf("  %-64s %s\n", what, cond ? "OK" : "MISMATCH");
    ok = ok && cond;
  };
  std::printf("\n--- shape checks (paper, §7) ---\n");
  check(results[0].small_iops > 1.5 * results[1].small_iops,
        "replication beats EC-RMW on random small writes");
  check(results[2].small_iops > results[1].small_iops,
        "parity logging improves on RMW partial writes");
  check(results[3].overwrite_iops > 1.2 * results[1].overwrite_iops,
        "PariX speculation beats RMW on overwrite-heavy writes");
  check(results[0].small_lat_us < results[1].small_lat_us,
        "replication's small-write latency is lower than EC-RMW's");
  check(results[1].capacity_overhead < results[0].capacity_overhead,
        "EC halves the capacity overhead (1.5x vs 3x)");
  std::printf("\n(EC optimizes capacity at the expense of small-write I/O — and HDD\n");
  std::printf(" capacity is the cheapest resource in the hybrid design, hence Ursa\n");
  std::printf(" chose replication + journals over EC/PariX — though PariX narrows the\n");
  std::printf(" overwrite gap, exactly its design goal.)\n");

  // ---- GF(256) kernel tiers (wall-clock) ----
  std::printf("\n=== GF(256) kernel tiers (64 KiB shards) ===\n\n");
  constexpr size_t kShard = 64 * 1024;
  TierGbps mul = BenchMulAccum(kShard);
  TierGbps enc42 = BenchEncode(4, 2, kShard);
  TierGbps rec42 = BenchReconstruct(4, 2, kShard);

  double enc_scalar = enc42.at(ec::GfKernelTier::kScalar);
  core::Table kt({"tier", "mul-accum GB/s", "encode(4+2) GB/s", "reconstruct(4+2) GB/s",
                  "encode vs scalar"});
  for (ec::GfKernelTier tier : kAllTiers) {
    if (!ec::GfKernelTierAvailable(tier)) {
      kt.AddRow({ec::GfKernelTierName(tier), "-", "-", "-", "(unavailable)"});
      continue;
    }
    kt.AddRow({ec::GfKernelTierName(tier), core::Table::Num(mul.at(tier), 2),
               core::Table::Num(enc42.at(tier), 2), core::Table::Num(rec42.at(tier), 2),
               core::Table::Num(enc42.at(tier) / enc_scalar, 1) + "x"});
  }
  kt.Print();
  ec::GfKernelTier best = ec::GfKernelBestTier();
  std::printf("active dispatch: %s\n", ec::GfKernelTierName(best));

  // Fused encode across geometries, best tier only: per-byte cost is roughly
  // flat in m because each data block is loaded once for all m parities.
  core::Table gt({"geometry", "encode GB/s (best tier)"});
  for (auto [k, m] : {std::pair{4, 2}, std::pair{6, 3}, std::pair{10, 4}}) {
    TierGbps g = BenchEncode(k, m, kShard);
    gt.AddRow({"EC(" + std::to_string(k) + "+" + std::to_string(m) + ")",
               core::Table::Num(g.at(best), 2)});
  }
  gt.Print();

  double enc_best = enc42.at(best);
  double enc_portable = enc42.at(ec::GfKernelTier::kPortable);
  double rec_portable = rec42.at(ec::GfKernelTier::kPortable);
  double rec_scalar = rec42.at(ec::GfKernelTier::kScalar);

  std::printf("\n--- kernel shape checks ---\n");
  check(enc_portable > enc_scalar, "portable slicing beats the scalar log/exp reference");
  check(rec_portable > rec_scalar, "portable reconstruction beats scalar");
  if (ec::GfKernelTierAvailable(ec::GfKernelTier::kAvx2)) {
    check(enc42.at(ec::GfKernelTier::kAvx2) >= 8.0 * enc_scalar,
          "AVX2 fused encode is >= 8x scalar");
  }
  if (ec::GfKernelTierAvailable(ec::GfKernelTier::kSsse3)) {
    check(enc42.at(ec::GfKernelTier::kSsse3) > enc_portable,
          "SSSE3 pshufb beats the portable slicer");
  }

  std::string json_path = core::MetricsJsonPath(argc, argv);
  if (json_path.empty()) {
    json_path = "BENCH_ec_comparison.json";
  }
  std::ofstream os(json_path);
  os << "{\"bench\":\"ec_comparison\""
     << ",\"ec_encode_scalar_gbps\":" << enc_scalar
     << ",\"ec_encode_portable_gbps\":" << enc_portable
     << ",\"ec_encode_ssse3_gbps\":" << enc42.at(ec::GfKernelTier::kSsse3)
     << ",\"ec_encode_avx2_gbps\":" << enc42.at(ec::GfKernelTier::kAvx2)
     << ",\"ec_encode_best_vs_scalar\":" << (enc_best / enc_scalar)
     << ",\"ec_encode_portable_vs_scalar\":" << (enc_portable / enc_scalar)
     << ",\"ec_mulaccum_portable_gbps\":" << mul.at(ec::GfKernelTier::kPortable)
     << ",\"ec_reconstruct_portable_gbps\":" << rec_portable
     << ",\"ec_reconstruct_portable_vs_scalar\":" << (rec_portable / rec_scalar)
     << ",\"_ec_kernel_best\":\"" << ec::GfKernelTierName(best) << "\""
     << ",\"_repl_small_iops\":" << results[0].small_iops
     << ",\"_ec_rmw_small_iops\":" << results[1].small_iops << "}\n";
  std::printf("\nmetrics written to %s\n", json_path.c_str());

  std::printf("EC %s\n", ok ? "SHAPE-OK" : "SHAPE-MISMATCH");
  return 0;
}
