#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fault/campaign.h"
#include "service/registry.h"
#include "support/failpoint.h"
#include "support/record.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

namespace aqed::service {

namespace {

// Wall-clock microseconds since the epoch (slow-log records correlate with
// external logs, so the steady trace clock is the wrong clock here).
int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Binds a Unix-domain stream socket at `path`, replacing a stale file.
StatusOr<int> BindSocket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::Error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Error(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path.c_str());  // a stale socket file from a dead server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Error("bind '" + path + "': " + error);
  }
  if (::listen(fd, 16) < 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    return Status::Error("listen '" + path + "': " + error);
  }
  return fd;
}

}  // namespace

AqedServer::AqedServer(ServerOptions options)
    : options_(std::move(options)), adapter_(cache_) {}

AqedServer::~AqedServer() { Stop(); }

Status AqedServer::Start() {
  AQED_CHECK(!started_, "AqedServer::Start called twice");
  if (!options_.cache_path.empty()) {
    const Status loaded = cache_.Load(options_.cache_path);
    if (!loaded.ok()) return loaded;
  }
  cache_.SetMaxEntries(options_.cache_max_entries);
  if (!options_.slow_log_path.empty() && options_.slow_request_ms >= 0) {
    slow_log_ = std::fopen(options_.slow_log_path.c_str(), "a");
    if (slow_log_ == nullptr) {
      return Status::Error("open slow-request log '" +
                           options_.slow_log_path + "': " +
                           std::strerror(errno));
    }
  }
  StatusOr<int> fd = BindSocket(options_.socket_path);
  if (!fd.ok()) {
    if (slow_log_ != nullptr) {
      std::fclose(slow_log_);
      slow_log_ = nullptr;
    }
    return fd.status();
  }
  listen_fd_ = fd.value();
  start_us_ = telemetry::NowMicros();
  PreRegisterMetrics();
  if (!options_.prom_path.empty()) {
    // Exposition needs the registry populated, so arm the runtime switch;
    // write once immediately so the scrape target exists (with the full
    // pre-registered name set) before the first request arrives.
    telemetry::SetEnabled(true);
    WritePromFile();
    prom_stop_ = false;
    prom_thread_ = std::thread([this] { PromLoop(); });
  }
  executors_ = std::make_unique<sched::ThreadPool>(options_.executors);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::Ok();
}

void AqedServer::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Unblock every connection handler parked in read(): shutdown() makes
    // the read return 0 without racing the handler's own close().
    for (const int fd : connections_) ::shutdown(fd, SHUT_RDWR);
  }
  // Unblock the accept loop: shutdown() wakes a blocked accept() on Linux;
  // the throwaway connect covers platforms where it does not.
  ::shutdown(listen_fd_, SHUT_RDWR);
  const int dummy = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (dummy >= 0) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() < sizeof(addr.sun_path)) {
      std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                  options_.socket_path.size() + 1);
      ::connect(dummy, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr));
    }
    ::close(dummy);
  }
  accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  executors_.reset();  // Wait()s for in-flight handlers, joins workers
  ::unlink(options_.socket_path.c_str());
  if (prom_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(prom_mutex_);
      prom_stop_ = true;
    }
    prom_cv_.notify_all();
    prom_thread_.join();
    WritePromFile();  // final exposition covers the whole lifetime
  }
  if (slow_log_ != nullptr) {
    std::fclose(slow_log_);
    slow_log_ = nullptr;
  }
  if (!options_.cache_path.empty()) {
    const Status saved = cache_.Save(options_.cache_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "[aqed-server] cache save: %s\n",
                   saved.message().c_str());
    }
  }
  started_ = false;
}

uint64_t AqedServer::accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

uint64_t AqedServer::rejected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rejected_;
}

uint64_t AqedServer::live_requests() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_;
}

uint64_t AqedServer::requests() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return requests_;
}

StatusResponse AqedServer::LiveStatus() const {
  StatusResponse status;
  status.ok = true;
  status.uptime_seconds =
      static_cast<double>(telemetry::NowMicros() - start_us_) / 1e6;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    status.requests = requests_;
    status.live_requests = live_;
    status.accepted = accepted_;
    status.rejected = rejected_;
    status.connections = connections_.size();
    // tenant_live_ keeps an entry for every tenant ever admitted (entries
    // decrement to 0, they are never erased), so this is "all seen".
    for (const auto& [name, live] : tenant_live_) {
      status.tenants.push_back({name, live});
    }
  }
  status.executors = options_.executors;
  status.max_live = options_.max_live;
  status.max_tenant_live = options_.max_tenant_live;
  status.cache_entries = cache_.size();
  status.cache_hits = cache_.hits();
  status.cache_misses = cache_.misses();
  status.cache_evicted = cache_.evicted();
  status.governor_pressure =
      telemetry::MetricsRegistry::Global().gauge("governor.pressure").value();
  const std::vector<uint64_t> counts = request_ms_.counts();
  const std::vector<double>& bounds = request_ms_.bounds();
  status.request_p50_ms = telemetry::HistogramQuantile(bounds, counts, 0.50);
  status.request_p95_ms = telemetry::HistogramQuantile(bounds, counts, 0.95);
  status.request_p99_ms = telemetry::HistogramQuantile(bounds, counts, 0.99);
  return status;
}

void AqedServer::PreRegisterMetrics() {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Global();
  for (const char* name :
       {"service.requests", "service.admission.rejected",
        "service.cache.hits", "service.cache.misses", "service.cache.store",
        "service.cache.dropped", "service.cache.evicted"}) {
    registry.counter(name);
  }
  registry.gauge("service.sessions.live");
  registry.gauge("service.queue_depth");
  registry.gauge("service.cache.entries");
  registry.gauge("governor.pressure");
  registry.histogram("service.request_ms");
}

void AqedServer::PromLoop() {
  const auto period = std::chrono::milliseconds(
      options_.prom_period_ms == 0 ? 1 : options_.prom_period_ms);
  std::unique_lock<std::mutex> lock(prom_mutex_);
  while (!prom_stop_) {
    if (prom_cv_.wait_for(lock, period, [this] { return prom_stop_; })) {
      break;  // Stop() writes the final file after the join
    }
    lock.unlock();
    WritePromFile();
    lock.lock();
  }
}

void AqedServer::WritePromFile() {
  if (!telemetry::WritePrometheusFile(
          options_.prom_path,
          telemetry::MetricsRegistry::Global().Snapshot())) {
    std::fprintf(stderr, "[aqed-server] prometheus write to '%s' failed\n",
                 options_.prom_path.c_str());
  }
}

void AqedServer::AppendSlowLog(uint64_t trace_id, const std::string& tenant,
                               const std::string& designs, uint32_t depth,
                               uint32_t mutants, double wall_ms,
                               const char* verdict, uint64_t digest) {
  if (slow_log_ == nullptr || options_.slow_request_ms < 0) return;
  if (wall_ms < static_cast<double>(options_.slow_request_ms)) return;
  // Built with the JSON model so tenant and design names arrive escaped.
  using telemetry::Json;
  const std::string line = telemetry::Dump(Json::Object({
      {"ts_us", Json(WallMicros())},
      {"trace_id", Json(support::Hex64(trace_id))},
      {"tenant", Json(tenant)},
      {"designs", Json(designs)},
      {"depth", Json(int64_t{depth})},
      {"mutants", Json(int64_t{mutants})},
      {"wall_ms", Json(wall_ms)},
      {"verdict", Json(verdict)},
      {"digest", Json(support::Hex64(digest))},
  }));
  std::lock_guard<std::mutex> lock(slow_log_mutex_);
  std::fprintf(slow_log_, "%s\n", line.c_str());
  std::fflush(slow_log_);
}

void AqedServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop) or hard error
    }
    // Chaos site: a connection the server fails to service — clients must
    // treat an immediately-closed connection as a retryable error.
    if (AQED_FAILPOINT("service.accept")) {
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      ++accepted_;
      connections_.insert(fd);
      telemetry::SetGauge("service.queue_depth",
                          static_cast<int64_t>(connections_.size()));
    }
    executors_->Submit([this, fd] { HandleConnection(fd); });
  }
}

void AqedServer::HandleConnection(int fd) {
  // Requests on one connection are served in order; concurrency comes from
  // concurrent connections (each on its own executor slot).
  for (;;) {
    StatusOr<std::string> frame = ReadFrame(fd);
    if (!frame.ok()) break;  // client done (EOF) or protocol error
    std::string response;
    const std::optional<telemetry::Json> payload =
        telemetry::ParseJson(frame.value());
    if (!payload) {
      response = EncodeError("request is not valid JSON");
    } else {
      response = HandleRequest(*payload);
    }
    if (!WriteFrame(fd, response).ok()) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(mutex_);
  connections_.erase(fd);
  telemetry::SetGauge("service.queue_depth",
                      static_cast<int64_t>(connections_.size()));
}

std::string AqedServer::HandleRequest(const telemetry::Json& payload) {
  const uint64_t begin_us = telemetry::NowMicros();
  std::string response = DispatchRequest(payload);
  const double wall_ms =
      static_cast<double>(telemetry::NowMicros() - begin_us) / 1000.0;
  // The server-owned histogram feeds status quantiles with telemetry off;
  // the registry mirror feeds the Prometheus exposition.
  request_ms_.Observe(wall_ms);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++requests_;
  }
  telemetry::AddCounter("service.requests", 1);
  telemetry::ObserveLatencyMs("service.request_ms", wall_ms);
  return response;
}

std::string AqedServer::DispatchRequest(const telemetry::Json& payload) {
  const std::optional<std::string> type = RequestType(payload);
  if (!type) return EncodeError("request without a 'type' field");
  if (*type == "ping") return EncodePong();
  if (*type == "health") {
    HealthResponse health;
    health.ok = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      health.state = stopping_ ? "stopping" : "ok";
    }
    health.uptime_seconds =
        static_cast<double>(telemetry::NowMicros() - start_us_) / 1e6;
    return EncodeHealthResponse(health);
  }
  if (*type == "status") return EncodeStatusResponse(LiveStatus());
  if (*type == "metrics") {
    MetricsResponse metrics;
    metrics.ok = true;
    metrics.prometheus = telemetry::RenderPrometheus(
        telemetry::MetricsRegistry::Global().Snapshot());
    return EncodeMetricsResponse(metrics);
  }
  if (*type == "campaign") {
    StatusOr<CampaignRequest> decoded = DecodeCampaignRequest(payload);
    if (!decoded.ok()) return EncodeError(decoded.status().message());
    CampaignRequest request = std::move(decoded).value();
    // A raw request without a trace id still runs traced: the id in the
    // error or response is the only handle the operator gets.
    if (request.trace_id == 0) request.trace_id = MintTraceId();
    std::string reason;
    if (!Admit(request.tenant, &reason)) {
      std::string names;
      for (const std::string& design : request.designs) {
        if (!names.empty()) names += ',';
        names += design;
      }
      AppendSlowLog(request.trace_id, request.tenant, names, /*depth=*/0,
                    request.num_mutants, /*wall_ms=*/0.0, "rejected",
                    /*digest=*/0);
      return EncodeError(reason);
    }
    const std::string response = RunCampaign(request);
    Release(request.tenant);
    return response;
  }
  return EncodeError("unknown request type '" + *type + "'");
}

bool AqedServer::Admit(const std::string& tenant, std::string* reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) {
    *reason = "server is shutting down";
  } else if (live_ >= options_.max_live) {
    *reason = "server saturated (" + std::to_string(live_) +
              " campaigns in flight); retry later";
  } else if (tenant_live_[tenant] >= options_.max_tenant_live) {
    *reason = "tenant '" + tenant + "' over quota (" +
              std::to_string(options_.max_tenant_live) +
              " campaigns in flight)";
  } else {
    ++live_;
    const uint32_t tenant_live = ++tenant_live_[tenant];
    telemetry::SetGauge("service.sessions.live",
                        static_cast<int64_t>(live_));
    telemetry::SetGauge("service.tenant." + tenant + ".live",
                        static_cast<int64_t>(tenant_live));
    return true;
  }
  ++rejected_;
  telemetry::AddCounter("service.admission.rejected", 1);
  return false;
}

void AqedServer::Release(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  --live_;
  const uint32_t tenant_live = --tenant_live_[tenant];
  telemetry::SetGauge("service.sessions.live", static_cast<int64_t>(live_));
  telemetry::SetGauge("service.tenant." + tenant + ".live",
                      static_cast<int64_t>(tenant_live));
}

std::string AqedServer::RunCampaign(const CampaignRequest& request) {
  // Every span this executor thread records while the campaign runs — the
  // request span itself, fault.sample:* solves, the baseline — carries the
  // request's trace id into the Chrome-trace export.
  const telemetry::ScopedTraceId trace_scope(request.trace_id);
  telemetry::Span span(
      "service.request",
      {{"mutants", static_cast<int64_t>(request.num_mutants)}});
  const uint64_t begin_us = telemetry::NowMicros();

  // The catalog is the CLI's (bench_fault) — identical DesignUnderTest
  // construction is what makes server and CLI digests comparable.
  StatusOr<std::vector<fault::DesignUnderTest>> selection = SelectDesigns(
      BuiltinDesigns({.with_aes = request.with_aes}), request.designs);
  if (!selection.ok()) {
    // The error names every catalog entry — a remote client cannot grep the
    // registry, so the rejection is its design listing.
    std::string names;
    for (const std::string& design : request.designs) {
      if (!names.empty()) names += ',';
      names += design;
    }
    AppendSlowLog(
        request.trace_id, request.tenant, names, /*depth=*/0,
        request.num_mutants,
        static_cast<double>(telemetry::NowMicros() - begin_us) / 1000.0,
        "error", /*digest=*/0);
    return EncodeError(selection.status().message());
  }
  const std::vector<fault::DesignUnderTest> designs =
      std::move(selection).value();

  uint32_t jobs = request.jobs;
  if (options_.max_session_jobs > 0 &&
      (jobs == 0 || jobs > options_.max_session_jobs)) {
    jobs = options_.max_session_jobs;
  }
  core::SessionOptions::Builder session;
  if (jobs == 0) {
    session.WithHardwareJobs();
  } else {
    session.WithJobs(jobs);
  }
  session.WithDeadlineMs(request.deadline_ms)
      .WithMemoryBudgetMb(request.memory_budget_mb)
      .WithRetries(request.retries);

  fault::FaultCampaignOptions campaign;
  campaign.seed = request.seed;
  campaign.num_mutants = request.num_mutants;
  campaign.session = session.Build();
  campaign.conventional_baseline = request.baseline;
  campaign.cache = &adapter_;
  campaign.trace_id = request.trace_id;

  const fault::FaultCampaignResult result =
      fault::RunFaultCampaign(designs, campaign);

  // Persist eagerly: the cache's value is surviving the server, and the
  // write is atomic, so a crash between campaigns costs nothing.
  if (!options_.cache_path.empty()) {
    const Status saved = cache_.Save(options_.cache_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "[aqed-server] cache save: %s\n",
                   saved.message().c_str());
    }
  }

  CampaignResponse response;
  response.ok = true;
  response.trace_id = request.trace_id;
  response.digest = result.ClassificationDigest();
  response.mutants = result.mutants.size();
  response.classified = result.num_classified();
  response.cache_hits = result.cache_hits;
  response.cache_misses = result.cache_misses;
  response.wall_seconds = result.wall_seconds;
  response.table = result.ToTable();
  span.AddArg("cache_hits", static_cast<int64_t>(result.cache_hits));

  std::string names;
  uint32_t depth = 0;
  for (const fault::DesignUnderTest& dut : designs) {
    if (!names.empty()) names += ',';
    names += dut.name;
    depth = std::max(depth, dut.options.bmc.max_bound);
  }
  AppendSlowLog(request.trace_id, request.tenant, names, depth,
                static_cast<uint32_t>(result.mutants.size()),
                result.wall_seconds * 1000.0, "ok",
                response.digest);
  return EncodeCampaignResponse(response);
}

}  // namespace aqed::service
