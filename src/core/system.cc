#include "src/core/system.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/trace/workload.h"

namespace ursa::core {

// Closed-loop workload driver: keeps `queue_depth` requests outstanding
// against one VirtualDisk, recording completions into the measured window.
class TestBed::Driver {
 public:
  Driver(sim::Simulator* sim, client::VirtualDisk* disk, const WorkloadSpec& spec)
      : sim_(sim),
        disk_(disk),
        spec_(spec),
        rng_(spec.seed),
        offsets_(spec.span == 0 ? disk->size() : std::min(spec.span, disk->size()),
                 512, spec.pattern == WorkloadSpec::Pattern::kSequential, spec.seed ^ 0xABCD) {}

  // Fixed workload mode: run until stop_time.
  void Start(Nanos stop_time, Nanos measure_start) {
    stop_time_ = stop_time;
    measure_start_ = measure_start;
    for (int i = 0; i < spec_.queue_depth; ++i) {
      IssueNext();
    }
  }

  // Trace-replay mode: run through `records` once.
  void StartTrace(const std::vector<trace::TraceRecord>* records, int queue_depth) {
    records_ = records;
    stop_time_ = INT64_MAX;
    measure_start_ = sim_->Now();
    for (int i = 0; i < queue_depth; ++i) {
      IssueNext();
    }
  }

  void ResetCounters() {
    completed_reads_ = 0;
    completed_writes_ = 0;
    read_bytes_ = 0;
    write_bytes_ = 0;
    read_latency_.Reset();
    write_latency_.Reset();
  }

  bool Drained() const { return outstanding_ == 0; }
  uint64_t completed_reads() const { return completed_reads_; }
  uint64_t completed_writes() const { return completed_writes_; }
  uint64_t read_bytes() const { return read_bytes_; }
  uint64_t write_bytes() const { return write_bytes_; }
  const Histogram& read_latency() const { return read_latency_; }
  const Histogram& write_latency() const { return write_latency_; }
  uint64_t errors() const { return errors_; }
  client::VirtualDisk* disk() const { return disk_; }

 private:
  void IssueNext() {
    bool is_write = false;
    uint64_t offset = 0;
    uint32_t length = 0;
    if (records_ != nullptr) {
      if (trace_pos_ >= records_->size()) {
        return;
      }
      const trace::TraceRecord& rec = (*records_)[trace_pos_++];
      is_write = rec.is_write;
      length = rec.length;
      uint64_t limit = disk_->size() - length;
      offset = rec.offset <= limit ? rec.offset : rec.offset % (limit + 1);
      offset -= offset % 512;
    } else {
      if (sim_->Now() >= stop_time_) {
        return;
      }
      is_write = !rng_.Bernoulli(spec_.read_fraction);
      length = static_cast<uint32_t>(spec_.block_size);
      offset = offsets_.Next(length);
    }

    ++outstanding_;
    Nanos start = sim_->Now();
    auto done = [this, is_write, length, start](const Status& s) {
      --outstanding_;
      if (!s.ok()) {
        ++errors_;
      } else if (start >= measure_start_) {
        auto lat_us = static_cast<int64_t>(ToUsec(sim_->Now() - start));
        if (is_write) {
          ++completed_writes_;
          write_bytes_ += length;
          write_latency_.Record(lat_us);
        } else {
          ++completed_reads_;
          read_bytes_ += length;
          read_latency_.Record(lat_us);
        }
      }
      IssueNext();
    };
    if (is_write) {
      disk_->Write(offset, length, BufferView(), std::move(done));  // timing-only
    } else {
      disk_->Read(offset, length, nullptr, std::move(done));
    }
  }

  sim::Simulator* sim_;
  client::VirtualDisk* disk_;
  WorkloadSpec spec_;
  Rng rng_;
  trace::OffsetStream offsets_;
  const std::vector<trace::TraceRecord>* records_ = nullptr;
  size_t trace_pos_ = 0;
  Nanos stop_time_ = 0;
  Nanos measure_start_ = 0;
  int outstanding_ = 0;
  uint64_t completed_reads_ = 0;
  uint64_t completed_writes_ = 0;
  uint64_t read_bytes_ = 0;
  uint64_t write_bytes_ = 0;
  uint64_t errors_ = 0;
  Histogram read_latency_;
  Histogram write_latency_;
};

TestBed::TestBed(const SystemProfile& profile) : profile_(profile) {
  cluster_ = std::make_unique<cluster::Cluster>(&sim_, profile.cluster);
}

TestBed::~TestBed() {
  // The sampler's tick closures reference the cluster's registry; stop them
  // before the cluster goes away.
  if (sampler_ != nullptr) {
    sampler_->Stop();
  }
}

void TestBed::EnableSampling(Nanos interval) {
  if (sampler_ != nullptr) {
    sampler_->Stop();
  }
  sampler_ = std::make_unique<obs::StatsSampler>(&sim_, &cluster_->metrics(), interval);
  sampler_->Start();
}

void TestBed::StopSampling() {
  if (sampler_ != nullptr) {
    sampler_->Stop();
  }
}

void TestBed::DumpMetricsJson(const std::string& path) {
  if (path.empty()) {
    return;
  }
  std::ofstream os(path);
  if (!os) {
    URSA_LOG(ERROR) << "cannot open metrics JSON path " << path;
    return;
  }
  os << "{\"metrics\":";
  cluster_->metrics().WriteJson(os);
  os << ",\"trace\":";
  cluster_->tracer().WriteJson(os);
  if (sampler_ != nullptr) {
    os << ",\"samples\":";
    sampler_->WriteJson(os);
  }
  if (obs::HealthMonitor* hm = cluster_->health_monitor()) {
    os << ",\"health\":";
    hm->WriteJson(os);
  }
  if (qos::SloMonitor* slo = cluster_->slo_monitor()) {
    os << ",\"slo\":";
    slo->WriteJson(os);
  }
  os << ",\"runs\":[";
  for (size_t i = 0; i < run_history_.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    run_history_[i].WriteJson(os);
  }
  os << "]}\n";
  URSA_LOG(INFO) << "metrics JSON written to " << path;
}

client::VirtualDisk* TestBed::NewDisk(uint64_t size, int replication, int stripe_group) {
  return NewDiskOn(cluster_->AddClientMachine(), size, replication, stripe_group);
}

client::VirtualDisk* TestBed::NewDiskOn(cluster::Machine* host, uint64_t size, int replication,
                                        int stripe_group) {
  Result<cluster::DiskId> disk_id = cluster_->master().CreateDisk(
      "disk" + std::to_string(next_client_id_), size, replication, stripe_group);
  URSA_CHECK(disk_id.ok()) << disk_id.status().ToString();
  auto disk = std::make_unique<client::VirtualDisk>(cluster_.get(), host, next_client_id_++,
                                                    profile_.client);
  Status open = disk->Open(*disk_id);
  URSA_CHECK(open.ok()) << open.ToString();
  disks_.push_back(std::move(disk));
  return disks_.back().get();
}

void TestBed::ResetMeasurementState(const std::vector<client::VirtualDisk*>& disks) {
  for (size_t m = 0; m < cluster_->num_machines(); ++m) {
    cluster_->machine(m).cpu().ResetStats();
  }
  for (client::VirtualDisk* disk : disks) {
    disk->ResetLoopStats();
  }
}

RunMetrics TestBed::Collect(const std::vector<std::unique_ptr<Driver>>& drivers, Nanos measured,
                            const std::string& label) {
  RunMetrics out;
  out.label = label;
  out.seconds = ToSec(measured);
  for (const auto& driver : drivers) {
    out.reads += driver->completed_reads();
    out.writes += driver->completed_writes();
    out.read_bytes += driver->read_bytes();
    out.write_bytes += driver->write_bytes();
    out.read_latency_us.Merge(driver->read_latency());
    out.write_latency_us.Merge(driver->write_latency());
    out.client_cpu_busy += driver->disk()->loop_busy_time();
  }
  for (size_t m = 0; m < cluster_->num_machines(); ++m) {
    out.server_cpu_busy += cluster_->machine(m).cpu().busy_time();
  }
  run_history_.push_back(out);
  return out;
}

RunMetrics TestBed::RunWorkload(client::VirtualDisk* disk, const WorkloadSpec& spec, Nanos warmup,
                                Nanos duration, const std::string& label) {
  return RunWorkloads({{disk, spec}}, warmup, duration, label);
}

RunMetrics TestBed::RunWorkloads(
    const std::vector<std::pair<client::VirtualDisk*, WorkloadSpec>>& jobs, Nanos warmup,
    Nanos duration, const std::string& label) {
  Nanos start = sim_.Now();
  Nanos measure_start = start + warmup;
  Nanos stop = measure_start + duration;

  std::vector<std::unique_ptr<Driver>> drivers;
  std::vector<client::VirtualDisk*> disks;
  uint64_t run_salt = 0x9E3779B97F4A7C15ULL * ++run_counter_;
  for (const auto& [disk, spec] : jobs) {
    core::WorkloadSpec salted = spec;
    salted.seed ^= run_salt;
    drivers.push_back(std::make_unique<Driver>(&sim_, disk, salted));
    disks.push_back(disk);
  }

  // Reset CPU accounting at the start of the measured window so Fig. 7 style
  // efficiency excludes warmup.
  sim_.At(measure_start, [this, &disks]() { ResetMeasurementState(disks); });

  for (auto& driver : drivers) {
    driver->Start(stop, measure_start);
  }
  sim_.RunUntil(stop);

  // Drain the in-flight tail so histograms are complete.
  auto all_drained = [&drivers]() {
    for (const auto& d : drivers) {
      if (!d->Drained()) {
        return false;
      }
    }
    return true;
  };
  while (!all_drained() && sim_.Step(INT64_MAX)) {
  }
  return Collect(drivers, duration, label);
}

RunMetrics TestBed::RunTrace(client::VirtualDisk* disk,
                             const std::vector<trace::TraceRecord>& records, int queue_depth,
                             const std::string& label) {
  std::vector<std::unique_ptr<Driver>> drivers;
  drivers.push_back(std::make_unique<Driver>(&sim_, disk, WorkloadSpec{}));
  std::vector<client::VirtualDisk*> disks = {disk};
  ResetMeasurementState(disks);

  Nanos start = sim_.Now();
  drivers[0]->StartTrace(&records, queue_depth);
  while (!drivers[0]->Drained() && sim_.Step(INT64_MAX)) {
  }
  Nanos elapsed = sim_.Now() - start;
  return Collect(drivers, elapsed, label);
}

}  // namespace ursa::core
