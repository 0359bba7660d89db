#include "src/cluster/upgrade.h"

#include <memory>
#include <utility>

#include "src/common/logging.h"

namespace ursa::cluster {

void UpgradeCoordinator::UpgradeServer(ServerId server, const std::string& version,
                                       std::function<bool()> health_check,
                                       std::function<void(bool)> done) {
  ChunkServer* cs = cluster_->server(server);
  URSA_CHECK(cs != nullptr);
  // (i) close the service port: stop receiving new I/O requests.
  cs->SetDraining(true);
  // (ii) wait for all in-flight requests to complete. Bounded polling: if a
  // request wedges (it should not), we swap anyway after ~2 s, mirroring an
  // operational timeout.
  int polls = static_cast<int>(sec(2) / std::max<Nanos>(drain_poll_, 1));
  DrainThenSwap(server, version, std::move(health_check), std::move(done), polls);
}

void UpgradeCoordinator::DrainThenSwap(ServerId server, const std::string& version,
                                       std::function<bool()> health_check,
                                       std::function<void(bool)> done, int polls_left) {
  ChunkServer* cs = cluster_->server(server);
  if (cs->inflight_ops() > 0 && polls_left > 0) {
    sim_->After(drain_poll_, [this, server, version, health_check = std::move(health_check),
                              done = std::move(done), polls_left]() mutable {
      DrainThenSwap(server, version, std::move(health_check), std::move(done), polls_left - 1);
    });
    return;
  }
  // (iii) start the new version of the chunk server in a new process and
  // (iv) check whether it works correctly.
  sim_->After(swap_window_, [this, server, version, health_check = std::move(health_check),
                             done = std::move(done)]() {
    ChunkServer* cs2 = cluster_->server(server);
    bool healthy = !health_check || health_check();
    if (healthy) {
      // Old process closes its connections and exits; the new one serves.
      cs2->set_software_version(version);
      cs2->SetDraining(false);
      done(true);
    } else {
      // Hot upgrade failed (bad config, missing libraries, ...): the old
      // chunk server kills the new process, re-opens the port, and
      // continues its service unchanged.
      cs2->SetDraining(false);
      done(false);
    }
  });
}

void UpgradeCoordinator::UpgradeAllServers(const std::string& version,
                                           std::function<bool(ServerId)> health_check,
                                           std::function<void(UpgradeReport)> done) {
  auto report = std::make_shared<UpgradeReport>();
  // Weak self-reference: each server's upgrade callback holds the chain.
  auto next = std::make_shared<std::function<void(ServerId)>>();
  size_t total = cluster_->num_servers();
  *next = [this, version, health_check = std::move(health_check), done = std::move(done), report,
           weak = std::weak_ptr<std::function<void(ServerId)>>(next), total](ServerId id) mutable {
    if (id >= total) {
      done(*report);
      return;
    }
    UpgradeServer(
        id, version, [health_check, id]() { return !health_check || health_check(id); },
        [this, id, report, next = weak.lock()](bool ok) {
          if (ok) {
            ++report->upgraded;
            report->log.push_back("server " + std::to_string(id) + ": upgraded");
          } else {
            ++report->rolled_back;
            report->log.push_back("server " + std::to_string(id) + ": rolled back");
          }
          // Confirm this upgrade behaves as expected before the next (§5.2).
          (*next)(id + 1);
        });
  };
  (*next)(0);
}

}  // namespace ursa::cluster
