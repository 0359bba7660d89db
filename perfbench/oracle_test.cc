// Self-checks of the benchmark's correctness oracle and op streams. Run by
// perfbench/test_determinism.py; exits non-zero on the first failure.
#include <cstdio>
#include <vector>

#include "perfbench/oracle.h"
#include "perfbench/streams.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void OracleDetectsEveryKindOfWrongRead() {
  constexpr uint64_t kSize = 64 * kSector;
  DiskOracle disk(/*tag=*/7, kSize);
  std::vector<uint8_t> buf(8 * kSector, 0);

  Expect(disk.Verify(buf.data(), 0, buf.size()) == 0, "unwritten sectors read as zeros");

  disk.Fill(buf.data(), 8 * kSector, buf.size(), /*v=*/3);
  disk.Commit(8 * kSector, buf.size(), 3);
  Expect(disk.Verify(buf.data(), 8 * kSector, buf.size()) == 0, "acked write reads back");
  Expect(disk.Verify(buf.data(), 16 * kSector, buf.size()) == 8, "misplaced bytes detected");

  std::vector<uint8_t> stale(buf.size());
  disk.Fill(stale.data(), 8 * kSector, stale.size(), /*v=*/2);
  Expect(disk.Verify(stale.data(), 8 * kSector, stale.size()) == 8, "stale version detected");

  buf[3 * kSector + 17] ^= 0x40;
  Expect(disk.Verify(buf.data(), 8 * kSector, buf.size()) == 1, "single flipped bit detected");

  DiskOracle other(/*tag=*/8, kSize);
  other.Commit(8 * kSector, buf.size(), 3);
  std::vector<uint8_t> mine(buf.size());
  disk.Fill(mine.data(), 8 * kSector, mine.size(), 3);
  Expect(other.Verify(mine.data(), 8 * kSector, mine.size()) == 8,
         "another disk's bytes detected");

  disk.Forget(8 * kSector, buf.size());
  Expect(disk.Verify(buf.data(), 8 * kSector, buf.size()) == 0, "failed writes are skipped");
}

void OracleTracksInflightRanges() {
  DiskOracle disk(1, 16 * kSector);
  disk.Lock(4 * kSector, 2 * kSector);
  Expect(disk.Overlaps(5 * kSector, kSector), "overlap inside a locked range");
  Expect(disk.Overlaps(0, 5 * kSector), "overlap at a locked range's start");
  Expect(!disk.Overlaps(6 * kSector, 4 * kSector), "no overlap after a locked range");
  disk.Unlock(4 * kSector, 2 * kSector);
  Expect(!disk.Overlaps(0, 16 * kSector), "unlock releases the range");
}

std::vector<Draw> Take(OpStream& stream, const DiskOracle& disk, int n) {
  std::vector<Draw> out;
  for (int i = 0; i < n; ++i) {
    std::optional<Draw> d = stream.Next(disk, 0);
    if (d) {
      out.push_back(*d);
    }
  }
  return out;
}

bool Same(const std::vector<Draw>& a, const std::vector<Draw>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].write != b[i].write || a[i].off != b[i].off || a[i].len != b[i].len) {
      return false;
    }
  }
  return true;
}

void StreamsReplayTheirSeed() {
  constexpr uint64_t kDisk = 32 * ursa::kMiB;
  DiskOracle disk(1, kDisk);
  const ursa::trace::TraceProfile& prxy = *ursa::trace::FindTraceProfile("prxy_0");
  MsrStream a(prxy, kDisk, 5), b(prxy, kDisk, 5), c(prxy, kDisk, 6);
  auto da = Take(a, disk, 2000);
  Expect(Same(da, Take(b, disk, 2000)), "MsrStream replays its seed");
  Expect(!Same(da, Take(c, disk, 2000)), "MsrStream differs across seeds");
  uint64_t writes = 0;
  for (const Draw& d : da) {
    writes += d.write ? 1 : 0;
    Expect(d.off % kSector == 0 && d.off + d.len <= kDisk, "MsrStream op inside the disk");
  }
  const double share = static_cast<double>(writes) / static_cast<double>(da.size());
  Expect(share > prxy.write_fraction - 0.01 && share < prxy.write_fraction + 0.01,
         "MsrStream keeps the profile's write share");

  RandomStream r1(4096, 0.85, kDisk, 4 * ursa::kMiB, 9), r2(4096, 0.85, kDisk, 4 * ursa::kMiB, 9);
  Expect(Same(Take(r1, disk, 500), Take(r2, disk, 500)), "RandomStream replays its seed");

  SeqStream s(ursa::kMiB, 3, 4, 11);
  auto ds = Take(s, disk, 6);
  Expect(ds.size() == 6 && ds[0].write && !ds[3].write, "SeqStream writes a pass, then reads it");
  Expect(ds[3].off == ds[0].off && ds[5].off == ds[2].off, "SeqStream reads the pass it wrote");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::OracleDetectsEveryKindOfWrongRead();
  perfbench::OracleTracksInflightRanges();
  perfbench::StreamsReplayTheirSeed();
  if (perfbench::failures > 0) {
    return 1;
  }
  std::printf("oracle_test: ok\n");
  return 0;
}
