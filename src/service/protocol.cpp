#include "service/protocol.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "support/record.h"

namespace aqed::service {

namespace {

using telemetry::Json;

Status WriteAll(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up (e.g. the service.accept chaos
    // site closing a backlogged connection) must surface as EPIPE here,
    // not as a process-killing SIGPIPE. Frames also travel over plain
    // pipes (send() refuses those with ENOTSOCK), so fall back to
    // write() for non-socket fds.
    ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, data.data() + written, data.size() - written);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Error(std::string("socket write: ") +
                           std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// Reads exactly `n` bytes; an error mentions `what` for context.
StatusOr<std::string> ReadExact(int fd, size_t n, const char* what) {
  std::string out(n, '\0');
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out.data() + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Error(std::string("socket read: ") +
                           std::strerror(errno));
    }
    if (r == 0) {
      return Status::Error(std::string("connection closed mid-") + what);
    }
    got += static_cast<size_t>(r);
  }
  return out;
}

// Counts go out as JSON integers: exact in Dump and ParseJson up to 2^63.
Json Int(uint64_t value) { return Json(static_cast<int64_t>(value)); }

// Parses a response payload and fills its ok/error columns; the caller
// reads the other fields only when `response.ok`.
template <typename Response>
StatusOr<Json> ParseResponse(std::string_view payload, Response& response) {
  std::optional<Json> json = telemetry::ParseJson(payload);
  if (!json || !json->is_object()) {
    return Status::Error("malformed response payload");
  }
  response.ok = json->GetBool("ok").value_or(false);
  if (!response.ok) {
    response.error = json->GetString("error").value_or("unspecified error");
  }
  return std::move(*json);
}

}  // namespace

uint64_t MintTraceId() {
  // splitmix64 over (wall-clock ns ^ pid ^ per-process counter): distinct
  // across concurrent clients on one machine and across restarts. Not
  // cryptographic — a trace id correlates telemetry, it authorizes nothing.
  static std::atomic<uint64_t> counter{0};
  uint64_t x = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  x ^= static_cast<uint64_t>(::getpid()) << 32;
  x += 0x9E3779B97F4A7C15ull *
       (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

Status WriteFrame(int fd, std::string_view payload) {
  char header[32];
  std::snprintf(header, sizeof(header), "%zu\n", payload.size());
  std::string frame(header);
  frame += payload;
  frame += '\n';
  return WriteAll(fd, frame);
}

StatusOr<std::string> ReadFrame(int fd) {
  // The length line, byte by byte: frames are few and small next to the
  // solves they request, so simplicity beats a read buffer here.
  std::string header;
  for (;;) {
    char c = 0;
    const ssize_t r = ::read(fd, &c, 1);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Error(std::string("socket read: ") +
                           std::strerror(errno));
    }
    if (r == 0) {
      if (header.empty()) return Status::Error("connection closed");
      return Status::Error("connection closed mid-header");
    }
    if (c == '\n') break;
    if (c < '0' || c > '9' || header.size() > 8) {
      return Status::Error("malformed frame length");
    }
    header += c;
  }
  if (header.empty()) return Status::Error("malformed frame length");
  const size_t length = std::strtoull(header.c_str(), nullptr, 10);
  if (length > kMaxFramePayload) {
    return Status::Error("frame payload over limit (" + header + " bytes)");
  }
  StatusOr<std::string> payload = ReadExact(fd, length + 1, "payload");
  if (!payload.ok()) return payload.status();
  std::string text = std::move(payload).value();
  if (text.back() != '\n') {
    return Status::Error("frame payload missing trailing newline");
  }
  text.pop_back();
  return text;
}

std::string EncodePing() {
  return telemetry::Dump(Json::Object({{"type", Json("ping")}}));
}

std::string EncodeStatusRequest() {
  return telemetry::Dump(Json::Object({{"type", Json("status")}}));
}

std::string EncodeMetricsRequest() {
  return telemetry::Dump(Json::Object({{"type", Json("metrics")}}));
}

std::string EncodeHealthRequest() {
  return telemetry::Dump(Json::Object({{"type", Json("health")}}));
}

std::string EncodeCampaignRequest(const CampaignRequest& request) {
  std::vector<Json> designs;
  for (const std::string& design : request.designs) {
    designs.emplace_back(design);
  }
  std::map<std::string, Json> fields = {
      {"type", Json("campaign")},
      {"tenant", Json(request.tenant)},
      {"designs", Json::Array(std::move(designs))},
      {"mutants", Int(request.num_mutants)},
      {"seed", Json(support::Hex64(request.seed))},
      {"with_aes", Json(request.with_aes)},
      {"baseline", Json(request.baseline)},
      {"jobs", Int(request.jobs)},
      {"deadline_ms", Int(request.deadline_ms)},
      {"memory_budget_mb", Int(request.memory_budget_mb)},
      {"retries", Int(request.retries)},
  };
  if (request.trace_id != 0) {
    fields.emplace("trace_id", Json(support::Hex64(request.trace_id)));
  }
  return telemetry::Dump(Json::Object(std::move(fields)));
}

std::optional<std::string> RequestType(const Json& payload) {
  return payload.GetString("type");
}

StatusOr<CampaignRequest> DecodeCampaignRequest(const Json& payload) {
  CampaignRequest request;
  request.tenant = payload.GetString("tenant").value_or(request.tenant);
  if (request.tenant.empty()) {
    return Status::Error("campaign request with an empty tenant");
  }
  request.trace_id = payload.GetHex64("trace_id").value_or(0);
  const Json* designs = payload.Find("designs");
  if (designs != nullptr) {
    if (!designs->is_array()) {
      return Status::Error("campaign 'designs' must be an array of names");
    }
    for (const Json& design : designs->AsArray()) {
      if (!design.is_string()) {
        return Status::Error("campaign 'designs' must be an array of names");
      }
      request.designs.push_back(design.AsString());
    }
  }
  // Absent counts keep their defaults; present ones must be integers that
  // fit uint32 (truncating 2^32 + 1 to 1 would run the wrong campaign).
  for (const auto& [name, field] :
       {std::pair{"mutants", &request.num_mutants},
        {"jobs", &request.jobs},
        {"deadline_ms", &request.deadline_ms},
        {"memory_budget_mb", &request.memory_budget_mb},
        {"retries", &request.retries}}) {
    if (payload.Find(name) == nullptr) continue;
    const std::optional<int64_t> value = payload.GetInt(name, 0, UINT32_MAX);
    if (!value) {
      return Status::Error(std::string("campaign '") + name +
                           "' must be an integer in [0, 4294967295]");
    }
    *field = static_cast<uint32_t>(*value);
  }
  if (request.num_mutants == 0) {
    return Status::Error("campaign request with zero mutants");
  }
  request.seed = payload.GetHex64("seed").value_or(request.seed);
  request.with_aes = payload.GetBool("with_aes").value_or(request.with_aes);
  request.baseline = payload.GetBool("baseline").value_or(request.baseline);
  return request;
}

std::string EncodeError(std::string_view message) {
  return telemetry::Dump(Json::Object({
      {"ok", Json(false)},
      {"error", Json(std::string(message))},
  }));
}

std::string EncodePong() {
  return telemetry::Dump(Json::Object({
      {"ok", Json(true)},
      {"type", Json("pong")},
  }));
}

std::string EncodeCampaignResponse(const CampaignResponse& response) {
  if (!response.ok) return EncodeError(response.error);
  std::map<std::string, Json> fields = {
      {"ok", Json(true)},
      {"digest", Json(support::Hex64(response.digest))},
      {"mutants", Int(response.mutants)},
      {"classified", Int(response.classified)},
      {"cache_hits", Int(response.cache_hits)},
      {"cache_misses", Int(response.cache_misses)},
      {"wall_seconds", Json(response.wall_seconds)},
      {"table", Json(response.table)},
  };
  if (response.trace_id != 0) {
    fields.emplace("trace_id", Json(support::Hex64(response.trace_id)));
  }
  return telemetry::Dump(Json::Object(std::move(fields)));
}

StatusOr<CampaignResponse> DecodeCampaignResponse(std::string_view payload) {
  CampaignResponse response;
  StatusOr<Json> parsed = ParseResponse(payload, response);
  if (!parsed.ok()) return parsed.status();
  if (!response.ok) return response;
  const Json& json = parsed.value();
  response.trace_id = json.GetHex64("trace_id").value_or(0);
  const auto digest = json.GetHex64("digest");
  if (!digest) return Status::Error("campaign response without a digest");
  response.digest = *digest;
  response.mutants = json.GetInt("mutants", 0, INT64_MAX).value_or(0);
  response.classified = json.GetInt("classified", 0, INT64_MAX).value_or(0);
  response.cache_hits = json.GetInt("cache_hits", 0, INT64_MAX).value_or(0);
  response.cache_misses =
      json.GetInt("cache_misses", 0, INT64_MAX).value_or(0);
  response.wall_seconds = json.GetDouble("wall_seconds").value_or(0);
  response.table = json.GetString("table").value_or("");
  return response;
}

std::string EncodeStatusResponse(const StatusResponse& response) {
  if (!response.ok) return EncodeError(response.error);
  std::map<std::string, Json> tenants;
  for (const StatusResponse::Tenant& tenant : response.tenants) {
    tenants.emplace(tenant.name, Int(tenant.live));
  }
  // Counters go as 16-hex strings like digests do: a long-lived server's
  // request totals are exactly the kind of uint64 a double-backed JSON
  // reader would silently round.
  return telemetry::Dump(Json::Object({
      {"ok", Json(true)},
      {"uptime_seconds", Json(response.uptime_seconds)},
      {"requests", Json(support::Hex64(response.requests))},
      {"live_requests", Int(response.live_requests)},
      {"accepted", Json(support::Hex64(response.accepted))},
      {"rejected", Json(support::Hex64(response.rejected))},
      {"connections", Int(response.connections)},
      {"executors", Int(response.executors)},
      {"max_live", Int(response.max_live)},
      {"max_tenant_live", Int(response.max_tenant_live)},
      {"tenants", Json::Object(std::move(tenants))},
      {"cache_entries", Int(response.cache_entries)},
      {"cache_hits", Json(support::Hex64(response.cache_hits))},
      {"cache_misses", Json(support::Hex64(response.cache_misses))},
      {"cache_evicted", Json(support::Hex64(response.cache_evicted))},
      {"governor_pressure", Json(response.governor_pressure)},
      {"request_p50_ms", Json(response.request_p50_ms)},
      {"request_p95_ms", Json(response.request_p95_ms)},
      {"request_p99_ms", Json(response.request_p99_ms)},
  }));
}

std::string EncodeHealthResponse(const HealthResponse& response) {
  if (!response.ok) return EncodeError(response.error);
  return telemetry::Dump(Json::Object({
      {"ok", Json(true)},
      {"state", Json(response.state)},
      {"uptime_seconds", Json(response.uptime_seconds)},
  }));
}

std::string EncodeMetricsResponse(const MetricsResponse& response) {
  if (!response.ok) return EncodeError(response.error);
  return telemetry::Dump(Json::Object({
      {"ok", Json(true)},
      {"prometheus", Json(response.prometheus)},
  }));
}

StatusOr<StatusResponse> DecodeStatusResponse(std::string_view payload) {
  StatusResponse response;
  StatusOr<Json> parsed = ParseResponse(payload, response);
  if (!parsed.ok()) return parsed.status();
  if (!response.ok) return response;
  const Json& json = parsed.value();
  response.uptime_seconds = json.GetDouble("uptime_seconds").value_or(0);
  response.requests = json.GetHex64("requests").value_or(0);
  response.live_requests =
      json.GetInt("live_requests", 0, INT64_MAX).value_or(0);
  response.accepted = json.GetHex64("accepted").value_or(0);
  response.rejected = json.GetHex64("rejected").value_or(0);
  response.connections = json.GetInt("connections", 0, INT64_MAX).value_or(0);
  response.executors = static_cast<uint32_t>(
      json.GetInt("executors", 0, UINT32_MAX).value_or(0));
  response.max_live = static_cast<uint32_t>(
      json.GetInt("max_live", 0, UINT32_MAX).value_or(0));
  response.max_tenant_live = static_cast<uint32_t>(
      json.GetInt("max_tenant_live", 0, UINT32_MAX).value_or(0));
  if (const Json* tenants = json.Find("tenants");
      tenants != nullptr && tenants->is_object()) {
    for (const auto& [name, live] : tenants->AsObject()) {
      if (!live.is_number()) continue;
      response.tenants.push_back(
          {name, static_cast<uint32_t>(
                     std::clamp<int64_t>(live.AsInt(), 0, UINT32_MAX))});
    }
  }
  response.cache_entries =
      json.GetInt("cache_entries", 0, INT64_MAX).value_or(0);
  response.cache_hits = json.GetHex64("cache_hits").value_or(0);
  response.cache_misses = json.GetHex64("cache_misses").value_or(0);
  response.cache_evicted = json.GetHex64("cache_evicted").value_or(0);
  response.governor_pressure =
      json.GetInt("governor_pressure", INT64_MIN, INT64_MAX).value_or(0);
  response.request_p50_ms = json.GetDouble("request_p50_ms").value_or(0);
  response.request_p95_ms = json.GetDouble("request_p95_ms").value_or(0);
  response.request_p99_ms = json.GetDouble("request_p99_ms").value_or(0);
  return response;
}

StatusOr<HealthResponse> DecodeHealthResponse(std::string_view payload) {
  HealthResponse response;
  StatusOr<Json> parsed = ParseResponse(payload, response);
  if (!parsed.ok()) return parsed.status();
  if (!response.ok) return response;
  const Json& json = parsed.value();
  response.state = json.GetString("state").value_or("ok");
  response.uptime_seconds = json.GetDouble("uptime_seconds").value_or(0);
  return response;
}

StatusOr<MetricsResponse> DecodeMetricsResponse(std::string_view payload) {
  MetricsResponse response;
  StatusOr<Json> parsed = ParseResponse(payload, response);
  if (!parsed.ok()) return parsed.status();
  if (!response.ok) return response;
  const Json& json = parsed.value();
  response.prometheus = json.GetString("prometheus").value_or("");
  return response;
}

bool IsOkResponse(std::string_view payload) {
  const std::optional<Json> json = telemetry::ParseJson(payload);
  return json && json->GetBool("ok").value_or(false);
}

}  // namespace aqed::service
