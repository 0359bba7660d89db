// Quickstart: stand up an Ursa cluster, create a virtual disk, write and
// read some data, and peek at what the hybrid machinery did underneath.
//
//   build/examples/quickstart
//
// Everything runs inside the discrete-event simulator: the cluster is a
// 3-machine hybrid deployment (primaries on SSD, journaled backups on HDD),
// and the client is the same richly-featured portal the benchmarks use.
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/client/virtual_disk.h"
#include "src/core/system.h"

using namespace ursa;

int main() {
  std::printf("== Ursa quickstart ==\n\n");

  // 1. Build a 3-machine hybrid cluster (the paper's small testbed shape).
  core::TestBed bed(core::UrsaHybridProfile(3));
  sim::Simulator& sim = bed.sim();

  // 2. Create and open a 1 GiB virtual disk (3-way replication, striping
  //    group of 2). The TestBed wires a client on a dedicated VMM host.
  client::VirtualDisk* disk = bed.NewDisk(1 * kGiB, /*replication=*/3, /*stripe_group=*/2);
  std::printf("created a %llu MiB virtual disk, lease held by client %llu\n",
              static_cast<unsigned long long>(disk->size() / kMiB),
              static_cast<unsigned long long>(disk->client_id()));

  // 3. Write a block. 4 KiB is a "tiny write" (<= Tc): the client replicates
  //    it to all three replicas itself.
  std::vector<uint8_t> hello(4096, 0);
  std::snprintf(reinterpret_cast<char*>(hello.data()), hello.size(),
                "hello from the hybrid block store");
  bool done = false;
  disk->Write(0, hello.size(), Buffer::CopyOf(hello.data(), hello.size()), [&](const Status& s) {
    std::printf("write committed: %s\n", s.ToString().c_str());
    done = true;
  });
  sim.RunUntil(sim.Now() + msec(50));
  if (!done) {
    std::printf("write did not complete!\n");
    return 1;
  }

  // 4. Read it back from the primary (SSD) replica.
  std::vector<uint8_t> back(4096, 0);
  done = false;
  disk->Read(0, back.size(), back.data(), [&](const Status& s) {
    std::printf("read returned:   %s -> \"%s\"\n", s.ToString().c_str(),
                reinterpret_cast<const char*>(back.data()));
    done = true;
  });
  sim.RunUntil(sim.Now() + msec(50));

  // 5. A large write (> Tj = 64 KiB) bypasses the journals straight to the
  //    backup HDDs.
  std::vector<uint8_t> big(256 * kKiB, 0xAB);
  disk->Write(1 * kMiB, big.size(), Buffer::CopyOf(big.data(), big.size()), [](const Status& s) {
    std::printf("256 KiB write (journal bypass) committed: %s\n", s.ToString().c_str());
  });
  sim.RunUntil(sim.Now() + msec(100));

  // 6. What happened underneath?
  uint64_t journaled = 0;
  uint64_t bypassed = 0;
  uint64_t replayed = 0;
  for (const auto* jm : bed.cluster().journal_managers()) {
    journaled += jm->stats().journaled_writes;
    bypassed += jm->stats().bypassed_writes;
    replayed += jm->stats().replayed_records;
  }
  std::printf("\nhybrid path stats across all backup HDDs:\n");
  std::printf("  journaled backup writes : %llu (the 4 KiB write, on 2 backups)\n",
              static_cast<unsigned long long>(journaled));
  std::printf("  bypassed backup writes  : %llu (the 256 KiB write, on 2 backups)\n",
              static_cast<unsigned long long>(bypassed));
  std::printf("  records replayed to HDD : %llu\n",
              static_cast<unsigned long long>(replayed));
  std::printf("\nclient view: %llu reads, %llu writes, read mean %.0f us, write mean %.0f us\n",
              static_cast<unsigned long long>(disk->stats().reads),
              static_cast<unsigned long long>(disk->stats().writes),
              disk->stats().read_latency_us.Mean(), disk->stats().write_latency_us.Mean());
  return 0;
}
