// Tests for journal record encoding, the ring JournalWriter, and JournalLite.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/crc32.h"
#include "src/journal/journal_lite.h"
#include "src/journal/journal_record.h"
#include "src/journal/journal_writer.h"
#include "src/storage/mem_device.h"
#include "test_util.h"

namespace ursa::journal {
namespace {

TEST(RecordTest, EncodeDecodeRoundTrip) {
  RecordHeader h;
  h.chunk_id = 42;
  h.chunk_offset = 8192;
  h.length = 4096;
  h.version = 17;
  uint8_t buf[RecordHeader::kEncodedSize];
  h.crc = h.ComputeCrc(nullptr);
  h.EncodeTo(buf);
  Result<RecordHeader> back = RecordHeader::Decode(buf);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->chunk_id, 42u);
  EXPECT_EQ(back->chunk_offset, 8192u);
  EXPECT_EQ(back->length, 4096u);
  EXPECT_EQ(back->version, 17u);
  EXPECT_EQ(back->crc, h.crc);
}

TEST(RecordTest, BadMagicRejected) {
  uint8_t buf[RecordHeader::kEncodedSize] = {};
  EXPECT_EQ(RecordHeader::Decode(buf).status().code(), StatusCode::kCorruption);
}

TEST(RecordTest, CrcCoversPayload) {
  RecordHeader h;
  h.chunk_id = 1;
  h.length = 512;
  auto payload = test::Pattern(512, 1);
  uint32_t c1 = h.ComputeCrc(payload.data());
  payload[100] ^= 0xFF;
  uint32_t c2 = h.ComputeCrc(payload.data());
  EXPECT_NE(c1, c2);
}

TEST(RecordTest, NullPayloadCrcMatchesZeros) {
  RecordHeader h;
  h.length = 2048;
  std::vector<uint8_t> zeros(2048, 0);
  EXPECT_EQ(h.ComputeCrc(nullptr), h.ComputeCrc(zeros.data()));
}

// KAT: the vectored CRC (streamed over arbitrary segment splits of the
// payload, including null zero-run segments) must equal the contiguous CRC of
// the equivalent flat buffer — the property the scatter append path relies on.
TEST(RecordTest, VectoredCrcMatchesContiguous) {
  RecordHeader h;
  h.chunk_id = 9;
  h.chunk_offset = 4096;
  h.length = 3000;
  h.version = 7;
  auto payload = test::Pattern(3000, 3);
  uint32_t flat = h.ComputeCrc(payload.data());
  Buffer bytes = test::Payload(payload);

  // Single segment.
  storage::IoSegment whole{bytes.View(), 3000};
  EXPECT_EQ(h.ComputeCrcVectored(&whole, 1), flat);

  // Split at several boundaries, including odd and sector-unaligned ones.
  for (uint64_t split : {1ull, 511ull, 512ull, 513ull, 1499ull, 2999ull}) {
    storage::IoSegment segs[2] = {{bytes.View(0, split), split},
                                  {bytes.View(split, 3000 - split), 3000 - split}};
    EXPECT_EQ(h.ComputeCrcVectored(segs, 2), flat) << "split " << split;
  }

  // Many tiny segments.
  std::vector<storage::IoSegment> fine;
  for (uint64_t off = 0; off < 3000; off += 97) {
    uint64_t n = std::min<uint64_t>(97, 3000 - off);
    fine.push_back(storage::IoSegment{bytes.View(off, n), n});
  }
  EXPECT_EQ(h.ComputeCrcVectored(fine.data(), fine.size()), flat);

  // Null segments fold as zero runs: data + trailing zeros must match the
  // contiguous CRC of the payload with a real zero tail.
  RecordHeader hz = h;
  hz.length = 3600;
  std::vector<uint8_t> padded(3600, 0);
  std::copy(payload.begin(), payload.end(), padded.begin());
  storage::IoSegment with_zero_tail[2] = {{bytes.View(), 3000}, {BufferView(), 600}};
  EXPECT_EQ(hz.ComputeCrcVectored(with_zero_tail, 2), hz.ComputeCrc(padded.data()));

  // All-null vector equals the null-payload (all-zeros) contiguous CRC.
  storage::IoSegment all_zero{BufferView(), 3600};
  EXPECT_EQ(hz.ComputeCrcVectored(&all_zero, 1), hz.ComputeCrc(nullptr));
}

TEST(RecordTest, FootprintSectorRounded) {
  EXPECT_EQ(RecordFootprint(1), kSector + kSector);
  EXPECT_EQ(RecordFootprint(512), kSector + 512u);
  EXPECT_EQ(RecordFootprint(513), kSector + 1024u);
  EXPECT_EQ(RecordFootprint(4096), kSector + 4096u);
}

TEST(RecordTest, EncodeRecordImage) {
  RecordHeader h;
  h.chunk_id = 5;
  h.chunk_offset = 1024;
  h.length = 1024;
  h.version = 3;
  auto payload = test::Pattern(1024, 2);
  std::vector<uint8_t> image = EncodeRecord(h, payload.data());
  ASSERT_EQ(image.size(), RecordFootprint(1024));
  Result<RecordHeader> back = RecordHeader::Decode(image.data());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->crc, back->ComputeCrc(image.data() + kSector));
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), image.begin() + kSector));
}

class JournalWriterTest : public ::testing::Test {
 protected:
  JournalWriterTest()
      : device_(&sim_, 1 * kMiB), writer_(&sim_, &device_, 0, 256 * kKiB, "test") {}

  sim::Simulator sim_;
  storage::MemDevice device_;
  JournalWriter writer_;
};

TEST_F(JournalWriterTest, AppendReturnsSectorAlignedPayloadOffset) {
  Status status;
  Result<uint64_t> j =
      writer_.Append(1, 0, 4096, 1, {}, [&](const Status& s) { status = s; });
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(*j % kSector, 0u);
  EXPECT_EQ(*j, kSector);  // first record: header sector then payload
  sim_.RunToCompletion();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(writer_.appended_records(), 1u);
  EXPECT_EQ(writer_.used_bytes(), RecordFootprint(4096));
}

TEST_F(JournalWriterTest, PayloadRoundTrip) {
  auto data = test::Pattern(4096, 3);
  Result<uint64_t> j = writer_.Append(1, 8192, 4096, 1, test::Payload(data), [](const Status&) {});
  ASSERT_TRUE(j.ok());
  sim_.RunToCompletion();
  BufferView out;
  writer_.ReadPayload(*j, 4096, &out, [](const Status& s) { ASSERT_TRUE(s.ok()); });
  sim_.RunToCompletion();
  EXPECT_EQ(test::Bytes(out), data);
}

TEST_F(JournalWriterTest, FillsAndReportsExhaustion) {
  // 256 KiB ring; each 4 KiB record occupies 4.5 KiB.
  size_t appended = 0;
  while (true) {
    Result<uint64_t> j = writer_.Append(1, 0, 4096, appended, {}, [](const Status&) {});
    if (!j.ok()) {
      EXPECT_EQ(j.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    ++appended;
  }
  EXPECT_EQ(appended, 256 * kKiB / RecordFootprint(4096));
  EXPECT_FALSE(writer_.CanFit(4096));
}

TEST_F(JournalWriterTest, FreeingAllowsReuseAndWraps) {
  // Fill, free everything, fill again: the ring must wrap cleanly.
  for (int round = 0; round < 3; ++round) {
    size_t appended = 0;
    while (writer_.CanFit(4096)) {
      ASSERT_TRUE(writer_.Append(1, 0, 4096, 1, {}, [](const Status&) {}).ok());
      ++appended;
    }
    EXPECT_GT(appended, 50u);
    sim_.RunToCompletion();
    while (writer_.HasPending()) {
      writer_.PopFrontAndFree();
    }
    EXPECT_EQ(writer_.used_bytes(), 0u);
  }
}

TEST_F(JournalWriterTest, PendingFifoMetadata) {
  writer_.Append(7, 1024, 512, 3, {}, [](const Status&) {});
  writer_.Append(8, 2048, 1024, 4, {}, [](const Status&) {});
  ASSERT_EQ(writer_.pending().size(), 2u);
  EXPECT_EQ(writer_.pending()[0].chunk_id, 7u);
  EXPECT_EQ(writer_.pending()[0].version, 3u);
  EXPECT_EQ(writer_.pending()[1].chunk_id, 8u);
  EXPECT_EQ(writer_.pending()[1].length, 1024u);
  writer_.PopFrontAndFree();
  ASSERT_EQ(writer_.pending().size(), 1u);
  EXPECT_EQ(writer_.pending()[0].chunk_id, 8u);
}

TEST_F(JournalWriterTest, WrapNeverSplitsRecord) {
  // Append 1.5 KiB-payload records well past one lap; every payload offset
  // must leave the whole record inside the region.
  for (int i = 0; i < 500; ++i) {
    if (!writer_.CanFit(1536)) {
      sim_.RunToCompletion();
      while (writer_.HasPending()) {
        writer_.PopFrontAndFree();
      }
    }
    Result<uint64_t> j = writer_.Append(1, 0, 1536, 1, {}, [](const Status&) {});
    ASSERT_TRUE(j.ok());
    EXPECT_LE(*j + 1536, writer_.region_length());
    EXPECT_GE(*j, kSector);
  }
}

// A crash can tear the newest append mid-payload: the header and the first
// payload sectors hit the platter, the rest never did. Recovery must refuse
// the whole record (its CRC spans the full payload), truncate the torn bytes,
// and leave the ring appendable — NOT replay half a write as if it finished.
TEST_F(JournalWriterTest, ScanTruncatesRecordCutMidPayload) {
  auto a = test::Pattern(4096, 1);
  auto b = test::Pattern(8192, 2);
  auto c = test::Pattern(4096, 3);
  ASSERT_TRUE(writer_.Append(1, 0, a.size(), 1, test::Payload(a), [](const Status&) {}).ok());
  ASSERT_TRUE(writer_.Append(1, 4096, b.size(), 2, test::Payload(b), [](const Status&) {}).ok());
  Result<uint64_t> jc =
      writer_.Append(1, 16384, c.size(), 3, test::Payload(c), [](const Status&) {});
  ASSERT_TRUE(jc.ok());
  sim_.RunToCompletion();

  // Cut the last record mid-payload: its second half reads back as garbage.
  writer_.CorruptByte(*jc + 2048, 0x5A);
  writer_.CorruptByte(*jc + 3500, 0xFF);
  sim_.RunToCompletion();

  std::vector<AppendedRecord> survivors;
  ScanReport report;
  writer_.Scan([&](const Status& s, std::vector<AppendedRecord> recs, ScanReport rep) {
    ASSERT_TRUE(s.ok());
    survivors = std::move(recs);
    report = rep;
  });
  sim_.RunToCompletion();

  ASSERT_EQ(survivors.size(), 2u);
  EXPECT_EQ(survivors[0].version, 1u);
  EXPECT_EQ(survivors[1].version, 2u);
  EXPECT_EQ(report.torn_tail_records, 1u);
  EXPECT_GT(report.torn_tail_bytes, 0u);

  // Truncation parks the head at the end of the last valid record, so the
  // torn bytes get overwritten by the next append and scan back clean.
  writer_.RestorePending(survivors);
  auto d = test::Pattern(4096, 4);
  Result<uint64_t> jd =
      writer_.Append(1, 16384, d.size(), 4, test::Payload(d), [](const Status&) {});
  ASSERT_TRUE(jd.ok());
  EXPECT_EQ(*jd, *jc);  // reuses the truncated slot
  sim_.RunToCompletion();

  writer_.Scan([&](const Status& s, std::vector<AppendedRecord> recs, ScanReport rep) {
    ASSERT_TRUE(s.ok());
    survivors = std::move(recs);
    report = rep;
  });
  sim_.RunToCompletion();
  ASSERT_EQ(survivors.size(), 3u);
  EXPECT_EQ(survivors.back().version, 4u);
  EXPECT_EQ(report.torn_tail_records, 0u);
}

// Silent corruption in the MIDDLE of the ring (not the tail) must not hide
// the valid records after it: only the damaged record is dropped.
TEST_F(JournalWriterTest, ScanKeepsValidRecordsPastMidRingCorruption) {
  auto a = test::Pattern(4096, 1);
  auto b = test::Pattern(4096, 2);
  auto c = test::Pattern(4096, 3);
  ASSERT_TRUE(writer_.Append(1, 0, a.size(), 1, test::Payload(a), [](const Status&) {}).ok());
  Result<uint64_t> jb =
      writer_.Append(1, 4096, b.size(), 2, test::Payload(b), [](const Status&) {});
  ASSERT_TRUE(jb.ok());
  ASSERT_TRUE(writer_.Append(1, 8192, c.size(), 3, test::Payload(c), [](const Status&) {}).ok());
  sim_.RunToCompletion();

  writer_.CorruptByte(*jb + 100, 0x01);  // single flipped bit-pattern mid-ring
  sim_.RunToCompletion();

  std::vector<AppendedRecord> survivors;
  ScanReport report;
  writer_.Scan([&](const Status& s, std::vector<AppendedRecord> recs, ScanReport rep) {
    ASSERT_TRUE(s.ok());
    survivors = std::move(recs);
    report = rep;
  });
  sim_.RunToCompletion();

  ASSERT_EQ(survivors.size(), 2u);
  EXPECT_EQ(survivors[0].version, 1u);
  EXPECT_EQ(survivors[1].version, 3u);  // the record PAST the damage survives
  EXPECT_GT(report.corrupt_sectors, 0u);
  EXPECT_EQ(report.torn_tail_records, 0u);  // not a tail cut: no truncation
}

// A record CRC combined from the payload's memoized sector sums is
// bit-identical to the hashed one, and verification still reads the stored
// bytes: a payload byte flipped on the device fails the rebuild Scan.
TEST_F(JournalWriterTest, SumBuiltCrcMatchesVectoredAndScanStillRejectsCorruption) {
  auto a = test::Pattern(4096, 51);
  auto b = test::Pattern(4096, 52);
  Buffer buf_a = Buffer::CopyOf(a.data(), a.size());
  Buffer buf_b = Buffer::CopyOf(b.data(), b.size());
  ASSERT_NE(buf_a.View().SectorSums(), nullptr);  // memoized before the append
  const uint64_t hashed = Crc32cBytesHashed();
  Result<uint64_t> ja = writer_.Append(1, 0, 4096, 1, buf_a.View(), [](const Status&) {});
  ASSERT_TRUE(ja.ok());
  // The append hashed the header, not the memoized payload.
  EXPECT_EQ(Crc32cBytesHashed() - hashed, RecordHeader::kEncodedSize);
  ASSERT_TRUE(writer_.Append(1, 4096, 4096, 2, buf_b.View(), [](const Status&) {}).ok());
  sim_.RunToCompletion();
  ASSERT_EQ(writer_.pending().size(), 2u);
  for (const AppendedRecord& rec : writer_.pending()) {
    const std::vector<uint8_t>& payload = rec.version == 1 ? a : b;
    storage::IoSegment seg{test::Payload(payload), payload.size()};
    EXPECT_EQ(rec.crc, rec.ToHeader().ComputeCrcVectored(&seg, 1)) << "record " << rec.version;
  }

  writer_.CorruptByte(*ja + 700, 0x10);
  sim_.RunToCompletion();
  std::vector<AppendedRecord> survivors;
  ScanReport report;
  writer_.Scan([&](const Status& s, std::vector<AppendedRecord> recs, ScanReport rep) {
    ASSERT_TRUE(s.ok());
    survivors = std::move(recs);
    report = rep;
  });
  sim_.RunToCompletion();
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0].version, 2u);
  EXPECT_GT(report.corrupt_sectors, 0u);
}

TEST(JournalLiteTest, RecordsAndReportsModifications) {
  JournalLite lite(16);
  lite.Record(1, 1, 0, 4096);
  lite.Record(1, 2, 8192, 4096);
  lite.Record(2, 1, 0, 512);  // other chunk
  std::vector<Interval> ranges;
  ASSERT_TRUE(lite.ModifiedSince(1, 0, &ranges));
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (Interval{0, 4096}));
  EXPECT_EQ(ranges[1], (Interval{8192, 4096}));
}

TEST(JournalLiteTest, SinceVersionFilters) {
  JournalLite lite(16);
  lite.Record(1, 1, 0, 512);
  lite.Record(1, 2, 1024, 512);
  lite.Record(1, 3, 2048, 512);
  std::vector<Interval> ranges;
  ASSERT_TRUE(lite.ModifiedSince(1, 2, &ranges));
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (Interval{2048, 512}));
}

TEST(JournalLiteTest, MergesOverlappingRanges) {
  JournalLite lite(16);
  lite.Record(1, 1, 0, 1024);
  lite.Record(1, 2, 512, 1024);
  lite.Record(1, 3, 4096, 512);
  std::vector<Interval> ranges;
  ASSERT_TRUE(lite.ModifiedSince(1, 0, &ranges));
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (Interval{0, 1536}));
  EXPECT_EQ(ranges[1], (Interval{4096, 512}));
}

TEST(JournalLiteTest, GcForcesFullCopy) {
  JournalLite lite(4);
  for (uint64_t v = 1; v <= 20; ++v) {
    lite.Record(1, v, v * 512, 512);
  }
  std::vector<Interval> ranges;
  // History no longer reaches back to version 2: full copy required.
  EXPECT_FALSE(lite.ModifiedSince(1, 2, &ranges));
  // But a recent version is still answerable; the three adjacent 512-byte
  // writes (v18..v20) merge into one contiguous range.
  EXPECT_TRUE(lite.ModifiedSince(1, 17, &ranges));
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (Interval{18 * 512, 3 * 512}));
}

}  // namespace
}  // namespace ursa::journal
