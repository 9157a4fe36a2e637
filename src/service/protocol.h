// aqed-server wire protocol: length-prefixed JSONL over a Unix-domain
// stream socket.
//
// Framing is deliberately trivial to parse from any language:
//
//   <decimal payload byte length>\n<payload JSON, one line>\n
//
// The length line bounds the read (no JSON scanning to find message ends),
// the trailing newline keeps a captured socket stream valid JSONL — `nc -U`
// piped through `jq` works. Payloads are single JSON objects built and
// parsed with the in-tree telemetry JSON model (telemetry/json.h), carrying
// a "type" discriminator:
//
//   request:  {"type":"ping"}
//             {"type":"status"} | {"type":"metrics"} | {"type":"health"}
//             {"type":"campaign","tenant":"ci","mutants":12,"seed":...,
//              "trace_id":"7f3a...","designs":["memctrl-fifo"],
//              "with_aes":false,"baseline":false,"jobs":2,"deadline_ms":0,
//              "memory_budget_mb":0,"retries":4}
//   response: {"ok":true,...} | {"ok":false,"error":"..."}
//
// Campaign responses carry the order-independent classification digest as a
// 16-hex-digit string (JSON numbers are doubles in many readers; a uint64
// digest must not round-trip through one). The same spelling carries the
// per-request trace_id: minted by the client (or by the server when a raw
// request omits it), echoed in the response, and stamped into every span,
// journal record, and cache entry the request produces.
//
// The introspection trio answers from live server state: `status` is the
// operator view (admission ladder, per-tenant live counts, cache and
// governor state, request latency quantiles), `metrics` carries the full
// registry as Prometheus text exposition, `health` is a cheap liveness
// probe (uptime + whether the server is draining for shutdown).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"
#include "telemetry/json.h"

namespace aqed::service {

// Upper bound on one frame's payload: a campaign response carries a
// coverage table, never megabytes. A length line beyond this is a protocol
// error, not an allocation request.
inline constexpr size_t kMaxFramePayload = 4u << 20;

// Blocking framed I/O over a connected stream socket. Both retry EINTR;
// short writes are completed. ReadFrame errors on EOF, a malformed or
// oversized length line, or a truncated payload.
Status WriteFrame(int fd, std::string_view payload);
StatusOr<std::string> ReadFrame(int fd);

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

// A fresh nonzero request trace id: splitmix64 over wall clock, pid, and a
// process-local counter. Uniqueness is statistical (ids correlate requests,
// they are not security tokens); never returns 0, the "untraced" value.
uint64_t MintTraceId();

struct CampaignRequest {
  std::string tenant = "default";
  // Per-request trace id (16-hex on the wire). 0 = unset: the typed client
  // mints one before sending, the server mints one for raw requests that
  // omit it — either way the response echoes the id the campaign ran under.
  uint64_t trace_id = 0;
  // Designs to enroll, by catalog name (service/registry.h); empty = every
  // built-in design (subject to with_aes).
  std::vector<std::string> designs;
  uint32_t num_mutants = 30;
  uint64_t seed = 0xA9EDFA17;
  bool with_aes = false;
  // Run the conventional random-simulation baseline too.
  bool baseline = false;
  // Session governance for this campaign's verification jobs. The server
  // clamps jobs to its own worker budget.
  uint32_t jobs = 1;
  uint32_t deadline_ms = 0;
  uint32_t memory_budget_mb = 0;
  uint32_t retries = 4;
};

struct CampaignResponse {
  bool ok = false;
  std::string error;             // set when !ok
  uint64_t trace_id = 0;         // echo of the id the campaign ran under
  uint64_t digest = 0;           // order-independent classification digest
  uint64_t mutants = 0;
  uint64_t classified = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double wall_seconds = 0;
  std::string table;             // per-design coverage table (human-facing)
};

// The operator view: everything an `aqed-client --status` call needs to
// answer "what is this server doing right now". All values come from live
// server state (admission counters, the solve cache, the server's own
// request-latency histogram), not from the telemetry kill switch.
struct StatusResponse {
  bool ok = false;
  std::string error;
  double uptime_seconds = 0;
  uint64_t requests = 0;         // total requests handled (any type)
  uint64_t live_requests = 0;    // campaigns admitted and not yet answered
  uint64_t accepted = 0;         // connections accepted since start
  uint64_t rejected = 0;         // admission-control rejections since start
  uint64_t connections = 0;      // currently-open client connections
  uint32_t executors = 0;        // configured executor pool size
  uint32_t max_live = 0;         // global admission bound
  uint32_t max_tenant_live = 0;  // per-tenant admission bound
  // Every tenant the server has seen, name-sorted, with its current
  // in-flight campaign count (0 once its campaigns drain).
  struct Tenant {
    std::string name;
    uint32_t live = 0;
  };
  std::vector<Tenant> tenants;
  uint64_t cache_entries = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evicted = 0;
  // Memory-governor pressure stage (governor.pressure gauge; 0 when no
  // governed session is running).
  int64_t governor_pressure = 0;
  // Request-latency quantiles over every request handled since start.
  double request_p50_ms = 0;
  double request_p95_ms = 0;
  double request_p99_ms = 0;
};

// Liveness probe: cheap to answer, safe to poll.
struct HealthResponse {
  bool ok = false;
  std::string error;
  std::string state;             // "ok" | "stopping"
  double uptime_seconds = 0;
};

// Prometheus text exposition of the server's full metrics registry
// (telemetry::RenderPrometheus output, carried verbatim).
struct MetricsResponse {
  bool ok = false;
  std::string error;
  std::string prometheus;
};

// Request encoding/decoding. Decode validates the "type" field and every
// typed member; unknown designs are the server's to reject (it owns the
// catalog), unknown fields are ignored (forward compatibility).
std::string EncodePing();
std::string EncodeStatusRequest();
std::string EncodeMetricsRequest();
std::string EncodeHealthRequest();
std::string EncodeCampaignRequest(const CampaignRequest& request);

// The "type" of a decoded request payload; nullopt on parse failure.
std::optional<std::string> RequestType(const telemetry::Json& payload);
StatusOr<CampaignRequest> DecodeCampaignRequest(const telemetry::Json& payload);

// Response encoding/decoding.
std::string EncodeError(std::string_view message);
std::string EncodePong();
std::string EncodeCampaignResponse(const CampaignResponse& response);
std::string EncodeStatusResponse(const StatusResponse& response);
std::string EncodeHealthResponse(const HealthResponse& response);
std::string EncodeMetricsResponse(const MetricsResponse& response);
StatusOr<CampaignResponse> DecodeCampaignResponse(std::string_view payload);
StatusOr<StatusResponse> DecodeStatusResponse(std::string_view payload);
StatusOr<HealthResponse> DecodeHealthResponse(std::string_view payload);
StatusOr<MetricsResponse> DecodeMetricsResponse(std::string_view payload);
// True iff the payload decodes to {"ok":true,...} (pong or any success).
bool IsOkResponse(std::string_view payload);

}  // namespace aqed::service
