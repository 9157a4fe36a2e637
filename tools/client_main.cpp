// aqed-client: thin CLI for aqed-server.
//
// Single-shot:
//   aqed-client --socket /tmp/aqed-server.sock --ping
//   aqed-client --socket ... --status [--json]    operator view (tenants,
//                                                 cache, latency quantiles)
//   aqed-client --socket ... --metrics [--json]   Prometheus exposition
//   aqed-client --socket ... --health [--json]    liveness probe
//   aqed-client --socket ... --campaign --designs memctrl-fifo,alu
//               --mutants 12 --jobs 2 --tenant ci
//
// Campaigns run under a client-minted trace id (echoed back and printed as
// the "trace id:" line); grep it in the server's Chrome trace, journal,
// slow-request log, and cache file to follow one request end to end.
//
// Batch / replay / stress:
//   aqed-client --socket ... --batch requests.jsonl [--repeat N] [--clients N]
//
// --batch replays a JSONL file of raw request payloads (exactly what the
// wire carries, so a captured server stream replays verbatim); --repeat
// loops the file, --clients fans it out over N concurrent connections —
// which makes the same flag set double as the stress generator the
// admission-control tests and the CI smoke job use. A campaign response
// prints the same "classification digest: ..." line bench_fault prints, so
// digests can be diffed straight across the two flows.
//
// Exit status: 0 iff every request got an ok:true response.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/client.h"

using namespace aqed;

namespace {

// Prints one response payload; campaign responses get the digest/cache
// lines, errors go to stderr. Returns true iff the response was ok.
bool PrintResponse(const std::string& payload) {
  if (StatusOr<service::CampaignResponse> campaign =
          service::DecodeCampaignResponse(payload);
      campaign.ok() && campaign.value().ok) {
    const service::CampaignResponse& r = campaign.value();
    std::printf("%s", r.table.c_str());
    if (r.trace_id != 0) {
      std::printf("trace id: %016llx\n",
                  static_cast<unsigned long long>(r.trace_id));
    }
    std::printf("cache: %llu hits, %llu misses\n",
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.cache_misses));
    std::printf("classification digest: %016llx\n",
                static_cast<unsigned long long>(r.digest));
    std::printf("campaign wall time: %.2f s\n", r.wall_seconds);
    return true;
  }
  if (service::IsOkResponse(payload)) {
    std::printf("%s\n", payload.c_str());
    return true;
  }
  std::fprintf(stderr, "request failed: %s\n", payload.c_str());
  return false;
}

// Replays `requests` over one connection; returns the number of failures.
size_t ReplayOnce(const std::string& socket_path,
                  const std::vector<std::string>& requests, bool print) {
  service::Client client(socket_path);
  size_t failures = 0;
  for (const std::string& request : requests) {
    StatusOr<std::string> response = client.Roundtrip(request);
    if (!response.ok()) {
      std::fprintf(stderr, "aqed-client: %s\n",
                   response.status().message().c_str());
      ++failures;
      continue;
    }
    if (print) {
      if (!PrintResponse(response.value())) ++failures;
    } else if (!service::IsOkResponse(response.value())) {
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::FlagParser flags(argc, argv);
  const std::string socket_path = flags.String(
      "--socket", "/tmp/aqed-server.sock", "aqed-server socket path");
  const bool ping = flags.Switch("--ping", "liveness round-trip");
  const bool status =
      flags.Switch("--status", "operator view of the live server state");
  const bool metrics =
      flags.Switch("--metrics", "Prometheus exposition of server metrics");
  const bool health = flags.Switch("--health", "liveness + uptime probe");
  const bool json = flags.Switch(
      "--json", "print the raw JSON response payload instead of prose");
  const bool campaign = flags.Switch("--campaign", "run a fault campaign");
  const std::string batch_path = flags.String(
      "--batch", {}, "replay a JSONL file of raw request payloads");

  service::CampaignRequest request;
  request.tenant = flags.String("--tenant", request.tenant,
                                "tenant name for admission control");
  request.num_mutants = flags.Uint32("--mutants", request.num_mutants,
                                     "mutants sampled per design");
  request.seed =
      flags.Uint64("--seed", request.seed, "campaign sampling seed");
  request.with_aes =
      flags.Switch("--with-aes", "include the AES designs in the catalog");
  request.baseline = flags.Switch(
      "--baseline", "also run the conventional random-simulation baseline");
  request.jobs = flags.Uint32("--jobs", request.jobs,
                              "session worker threads (server may clamp)");
  request.deadline_ms =
      flags.Uint32("--deadline-ms", request.deadline_ms,
                   "per-job wall-clock deadline (0 = none)");
  request.memory_budget_mb =
      flags.Uint32("--memory-budget-mb", request.memory_budget_mb,
                   "session memory budget (0 = ungoverned)");
  request.retries = flags.Uint32("--retries", request.retries,
                                 "escalating-budget retries per job");
  const std::string designs = flags.String(
      "--designs", {}, "comma-separated catalog names (empty = all)");
  std::stringstream design_stream(designs);
  for (std::string name; std::getline(design_stream, name, ',');) {
    if (!name.empty()) request.designs.push_back(name);
  }

  const uint32_t repeat =
      flags.Uint32("--repeat", 1, "loop the batch file this many times");
  const uint32_t clients = flags.Uint32(
      "--clients", 1, "fan the batch out over N concurrent connections");
  flags.RejectUnknown(argv[0]);

  if (!batch_path.empty()) {
    std::ifstream file(batch_path);
    if (!file) {
      std::fprintf(stderr, "aqed-client: cannot read %s\n",
                   batch_path.c_str());
      return 1;
    }
    std::vector<std::string> requests;
    for (std::string line; std::getline(file, line);) {
      if (!line.empty()) requests.push_back(line);
    }
    std::vector<std::string> replay;
    for (uint32_t i = 0; i < repeat; ++i) {
      replay.insert(replay.end(), requests.begin(), requests.end());
    }
    if (clients <= 1) {
      const size_t failures = ReplayOnce(socket_path, replay, true);
      std::printf("batch: %zu requests, %zu failed\n", replay.size(),
                  failures);
      return failures == 0 ? 0 : 1;
    }
    // Stress mode: N connections replaying concurrently. Output would
    // interleave, so workers only count failures.
    std::atomic<size_t> failures{0};
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (uint32_t c = 0; c < clients; ++c) {
      workers.emplace_back([&] {
        failures += ReplayOnce(socket_path, replay, false);
      });
    }
    for (std::thread& worker : workers) worker.join();
    std::printf("stress: %u clients x %zu requests, %zu failed\n", clients,
                replay.size(), failures.load());
    return failures.load() == 0 ? 0 : 1;
  }

  service::Client client(socket_path);
  if (ping) {
    const Status status = client.Ping();
    if (!status.ok()) {
      std::fprintf(stderr, "aqed-client: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (status) {
    StatusOr<std::string> response =
        client.Roundtrip(service::EncodeStatusRequest());
    if (!response.ok()) {
      std::fprintf(stderr, "aqed-client: %s\n",
                   response.status().message().c_str());
      return 1;
    }
    if (json) {
      std::printf("%s\n", response.value().c_str());
      return service::IsOkResponse(response.value()) ? 0 : 1;
    }
    StatusOr<service::StatusResponse> decoded =
        service::DecodeStatusResponse(response.value());
    if (!decoded.ok() || !decoded.value().ok) {
      std::fprintf(stderr, "aqed-client: %s\n",
                   decoded.ok() ? decoded.value().error.c_str()
                                : decoded.status().message().c_str());
      return 1;
    }
    const service::StatusResponse& s = decoded.value();
    std::printf("uptime %.1f s, %llu requests (%llu campaigns live), "
                "%llu connections\n",
                s.uptime_seconds,
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.live_requests),
                static_cast<unsigned long long>(s.connections));
    std::printf("admission: %llu accepted, %llu rejected "
                "(max live %u, max per tenant %u, executors %u)\n",
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.rejected), s.max_live,
                s.max_tenant_live, s.executors);
    std::printf("tenants:");
    if (s.tenants.empty()) std::printf(" (none yet)");
    for (const service::StatusResponse::Tenant& tenant : s.tenants) {
      std::printf(" %s=%u", tenant.name.c_str(), tenant.live);
    }
    std::printf("\n");
    std::printf("cache: %llu entries, %llu hits, %llu misses, %llu evicted\n",
                static_cast<unsigned long long>(s.cache_entries),
                static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(s.cache_misses),
                static_cast<unsigned long long>(s.cache_evicted));
    std::printf("governor pressure: %lld\n",
                static_cast<long long>(s.governor_pressure));
    std::printf("request latency: p50 %.3g ms, p95 %.3g ms, p99 %.3g ms\n",
                s.request_p50_ms, s.request_p95_ms, s.request_p99_ms);
    return 0;
  }
  if (metrics) {
    StatusOr<std::string> response =
        client.Roundtrip(service::EncodeMetricsRequest());
    if (!response.ok()) {
      std::fprintf(stderr, "aqed-client: %s\n",
                   response.status().message().c_str());
      return 1;
    }
    if (json) {
      std::printf("%s\n", response.value().c_str());
      return service::IsOkResponse(response.value()) ? 0 : 1;
    }
    StatusOr<service::MetricsResponse> decoded =
        service::DecodeMetricsResponse(response.value());
    if (!decoded.ok() || !decoded.value().ok) {
      std::fprintf(stderr, "aqed-client: %s\n",
                   decoded.ok() ? decoded.value().error.c_str()
                                : decoded.status().message().c_str());
      return 1;
    }
    // The exposition is already a text format; print it verbatim.
    std::fputs(decoded.value().prometheus.c_str(), stdout);
    return 0;
  }
  if (health) {
    StatusOr<std::string> response =
        client.Roundtrip(service::EncodeHealthRequest());
    if (!response.ok()) {
      std::fprintf(stderr, "aqed-client: %s\n",
                   response.status().message().c_str());
      return 1;
    }
    if (json) {
      std::printf("%s\n", response.value().c_str());
      return service::IsOkResponse(response.value()) ? 0 : 1;
    }
    StatusOr<service::HealthResponse> decoded =
        service::DecodeHealthResponse(response.value());
    if (!decoded.ok() || !decoded.value().ok) {
      std::fprintf(stderr, "aqed-client: %s\n",
                   decoded.ok() ? decoded.value().error.c_str()
                                : decoded.status().message().c_str());
      return 1;
    }
    std::printf("%s (up %.1f s)\n", decoded.value().state.c_str(),
                decoded.value().uptime_seconds);
    return decoded.value().state == "ok" ? 0 : 1;
  }
  if (campaign) {
    if (request.trace_id == 0) request.trace_id = service::MintTraceId();
    StatusOr<std::string> response =
        client.Roundtrip(service::EncodeCampaignRequest(request));
    if (!response.ok()) {
      std::fprintf(stderr, "aqed-client: %s\n",
                   response.status().message().c_str());
      return 1;
    }
    return PrintResponse(response.value()) ? 0 : 1;
  }
  std::fprintf(stderr,
               "aqed-client: pick a mode: --ping | --status | "
               "--metrics | --health | --campaign | --batch FILE\n");
  return 2;
}
