// Per-chunk linearizability checking (the paper's Appendix A, as a test;
// the bounds are chaos::BlockHistory's).
//
// The harness below records invocation/response timestamps of concurrent,
// pipelined reads and writes (tagging each block's bytes with its write
// sequence number) and checks both bounds — under normal operation, under a
// replica crash (majority commits), and across a view change.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "src/chaos/block_history.h"
#include "src/client/virtual_disk.h"
#include "src/common/rng.h"
#include "src/core/system.h"
#include "test_util.h"

namespace ursa::client {
namespace {

constexpr uint64_t kBlock = 4096;

// Harness: fires pipelined reads/writes over `blocks` 4K blocks, embedding
// the sequence number in each write's payload and checking every read.
class LinearizabilityHarness {
 public:
  LinearizabilityHarness(sim::Simulator* sim, VirtualDisk* disk, int blocks, uint64_t seed)
      : sim_(sim), disk_(disk), blocks_(blocks), rng_(seed), histories_(blocks) {}

  void RunOps(int ops, Nanos budget) {
    for (int i = 0; i < ops; ++i) {
      IssueRandomOp();
      // Pipelined: keep ~4 ops in flight by pacing issues.
      sim_->RunUntil(sim_->Now() + usec(200));
    }
    sim_->RunUntil(sim_->Now() + budget);
  }

  int checked_reads() const { return checked_reads_; }
  int committed_writes() const { return committed_writes_; }
  bool all_ok() const { return all_ok_; }

 private:
  void IssueRandomOp() {
    int block = static_cast<int>(rng_.Uniform(blocks_));
    uint64_t offset = static_cast<uint64_t>(block) * kBlock;
    if (rng_.Bernoulli(0.5)) {
      uint32_t seq = histories_[block].OnWriteInvoke(sim_->Now());
      Buffer buf = Buffer::AllocateZeroed(kBlock);
      std::memcpy(buf.data(), &seq, sizeof(seq));
      disk_->Write(offset, kBlock, buf, [this, block, seq](const Status& s) {
        if (s.ok()) {
          histories_[block].OnWriteCommit(seq, sim_->Now());
          ++committed_writes_;
        }
      });
    } else {
      auto buf = std::make_shared<std::vector<uint8_t>>(kBlock, 0);
      Nanos invoke = sim_->Now();
      disk_->Read(offset, kBlock, buf->data(), [this, block, invoke, buf](const Status& s) {
        if (!s.ok()) {
          return;  // failed reads make no visibility claim
        }
        uint32_t seq = 0;
        std::memcpy(&seq, buf->data(), sizeof(seq));
        std::string violation = histories_[block].CheckRead(seq, invoke, sim_->Now());
        testing::AssertionResult result = violation.empty()
                                              ? testing::AssertionSuccess()
                                              : testing::AssertionFailure() << violation;
        EXPECT_TRUE(result) << "block " << block;
        all_ok_ = all_ok_ && static_cast<bool>(result);
        ++checked_reads_;
      });
    }
  }

  sim::Simulator* sim_;
  VirtualDisk* disk_;
  int blocks_;
  Rng rng_;
  std::vector<chaos::BlockHistory> histories_;
  int checked_reads_ = 0;
  int committed_writes_ = 0;
  bool all_ok_ = true;
};

class LinearizabilityTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void Build() {
    cluster_ = std::make_unique<cluster::Cluster>(&sim_, test::SmallClusterConfig());
    disk_id_ = *cluster_->master().CreateDisk("d", 4 * kMiB, 3, 1);
    VirtualDiskClientOptions options;
    options.request_timeout = msec(300);
    disk_ = std::make_unique<VirtualDisk>(cluster_.get(), cluster_->AddClientMachine(), 1,
                                          options);
    ASSERT_TRUE(disk_->Open(disk_id_).ok());
  }

  sim::Simulator sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  cluster::DiskId disk_id_ = 0;
  std::unique_ptr<VirtualDisk> disk_;
};

TEST_P(LinearizabilityTest, NormalOperation) {
  Build();
  LinearizabilityHarness harness(&sim_, disk_.get(), 16, GetParam());
  harness.RunOps(150, sec(5));
  EXPECT_TRUE(harness.all_ok());
  EXPECT_GT(harness.checked_reads(), 20);
  EXPECT_GT(harness.committed_writes(), 20);
}

TEST_P(LinearizabilityTest, SurvivesBackupCrash) {
  Build();
  LinearizabilityHarness harness(&sim_, disk_.get(), 16, GetParam() + 77);
  harness.RunOps(50, msec(50));
  // Crash a backup mid-stream: majority commits must stay linearizable.
  const cluster::DiskMeta* meta = *cluster_->master().GetDisk(disk_id_);
  cluster_->CrashServer(meta->chunks[0].replicas[2].server);
  harness.RunOps(100, sec(10));
  EXPECT_TRUE(harness.all_ok());
  EXPECT_GT(harness.checked_reads(), 30);
}

TEST_P(LinearizabilityTest, SurvivesPrimaryCrashAndViewChange) {
  Build();
  LinearizabilityHarness harness(&sim_, disk_.get(), 8, GetParam() + 123);
  harness.RunOps(40, msec(50));
  const cluster::DiskMeta* meta = *cluster_->master().GetDisk(disk_id_);
  cluster_->CrashServer(meta->chunks[0].replicas[0].server);  // the primary
  harness.RunOps(80, sec(30));
  EXPECT_TRUE(harness.all_ok());
  EXPECT_GT(harness.committed_writes(), 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearizabilityTest, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace ursa::client
