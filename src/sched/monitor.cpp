#include "sched/monitor.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

#include "sched/memory_pressure.h"
#include "telemetry/telemetry.h"

namespace aqed::sched {

namespace internal {
std::atomic<uint8_t> g_pressure{0};
}  // namespace internal

namespace {

constexpr std::chrono::milliseconds kPollPeriod{20};
constexpr uint64_t kShedPercent = 75;      // kShed at >= this % of budget
constexpr uint64_t kThrottlePercent = 90;  // kThrottle at >= this % of budget

// The calling thread's publish slot: set for the lifetime of the JobScope
// registered on this thread, null otherwise. Only that thread publishes,
// and it clears the slot before unregistering, so a publish never outlives
// the job's entry.
thread_local std::atomic<uint64_t>* t_solver_bytes = nullptr;

}  // namespace

void PublishSolverMemory(uint64_t bytes) {
  if (t_solver_bytes != nullptr) {
    t_solver_bytes->store(bytes, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// JobScope
// ---------------------------------------------------------------------------

SessionMonitor::JobScope& SessionMonitor::JobScope::operator=(
    JobScope&& other) noexcept {
  if (this != &other) {
    Release();
    monitor_ = std::exchange(other.monitor_, nullptr);
    id_ = std::exchange(other.id_, 0);
    source_ = std::move(other.source_);
  }
  return *this;
}

void SessionMonitor::JobScope::Release() {
  if (monitor_ == nullptr) return;
  t_solver_bytes = nullptr;
  monitor_->Unregister(id_);
  monitor_ = nullptr;
}

// ---------------------------------------------------------------------------
// SessionMonitor
// ---------------------------------------------------------------------------

SessionMonitor::SessionMonitor(uint32_t memory_budget_mb,
                               uint32_t sample_period_ms,
                               telemetry::MetricsRegistry* registry)
    : budget_mb_(memory_budget_mb),
      sample_period_ms_(sample_period_ms),
      registry_(registry != nullptr ? *registry
                                    : telemetry::MetricsRegistry::Global()) {}

SessionMonitor::~SessionMonitor() { Stop(); }

void SessionMonitor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  sampling_ = AQED_TELEMETRY_ENABLED && sample_period_ms_ > 0 &&
              telemetry::Enabled();
  if (sampling_) SampleLocked(telemetry::SampleResourceUsage());
  thread_ = std::thread([this] { Loop(); });
}

void SessionMonitor::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    // Flip running_ before releasing the lock so a concurrent Stop() bails
    // out above instead of joining the already-moved thread.
    running_ = false;
    stop_ = true;
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  to_join.join();
  if (budget_mb_ > 0) {
    internal::g_pressure.store(0, std::memory_order_relaxed);
    telemetry::SetGauge("governor.pressure", 0);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sampling_) SampleLocked(telemetry::SampleResourceUsage());  // end state
}

bool SessionMonitor::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

SessionMonitor::JobScope SessionMonitor::Register(std::string label,
                                                  uint32_t deadline_ms) {
  CancellationSource source;
  auto bytes = std::make_unique<std::atomic<uint64_t>>(0);
  // Bind this thread's publish slot to the new job. RunJob registers on
  // the thread that executes the job, so solver publishes from that thread
  // land here; nested cube workers run on other threads and stay unbound
  // (the process-wide RSS probe still sees their allocations).
  t_solver_bytes = bytes.get();
  const Clock::time_point deadline =
      deadline_ms > 0 ? Clock::now() + std::chrono::milliseconds(deadline_ms)
                      : Clock::time_point::max();
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    jobs_.push_back({id, std::move(label), source, std::move(bytes), deadline});
  }
  // A new deadline may be the earliest; wake the thread to re-plan.
  if (deadline_ms > 0) cv_.notify_all();
  return JobScope(this, id, std::move(source));
}

void SessionMonitor::Unregister(uint64_t id) {
  // No notify: the thread re-plans on every wakeup, and waking it early for
  // a removal would only cost a spurious scan.
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find_if(jobs_.begin(), jobs_.end(),
                               [id](const Job& job) { return job.id == id; });
  if (it != jobs_.end()) {
    *it = std::move(jobs_.back());
    jobs_.pop_back();
  }
}

std::vector<telemetry::TimeSeriesSample> SessionMonitor::TakeSamples() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<telemetry::TimeSeriesSample> out(
      std::make_move_iterator(ring_.begin()),
      std::make_move_iterator(ring_.end()));
  ring_.clear();
  return out;
}

uint64_t SessionMonitor::num_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_dropped_;
}

void SessionMonitor::GovernLocked(const telemetry::ResourceUsage& usage) {
  const uint64_t budget_kb = static_cast<uint64_t>(budget_mb_) * 1024;
  MemoryPressure pressure = MemoryPressure::kNone;
  if (usage.rss_kb > 0) {
    const uint64_t rss_kb = static_cast<uint64_t>(usage.rss_kb);
    if (rss_kb >= budget_kb) {
      pressure = MemoryPressure::kCancel;
    } else if (rss_kb * 100 >= budget_kb * kThrottlePercent) {
      pressure = MemoryPressure::kThrottle;
    } else if (rss_kb * 100 >= budget_kb * kShedPercent) {
      pressure = MemoryPressure::kShed;
    }
  }
  internal::g_pressure.store(static_cast<uint8_t>(pressure),
                             std::memory_order_relaxed);
  telemetry::SetGauge("governor.pressure", static_cast<int64_t>(pressure));
  if (pressure != MemoryPressure::kCancel) return;

  // One job per poll: give the freed memory a poll period to show up in
  // RSS before deciding the next-heaviest job must die too.
  Job* heaviest = nullptr;
  uint64_t heaviest_bytes = 0;
  for (Job& job : jobs_) {
    if (job.source.cancelled()) continue;
    const uint64_t bytes = job.bytes->load(std::memory_order_relaxed);
    // >= so that jobs publishing nothing (footprint 0) are still
    // cancellable — the budget must win even over silent jobs.
    if (heaviest == nullptr || bytes >= heaviest_bytes) {
      heaviest = &job;
      heaviest_bytes = bytes;
    }
  }
  if (heaviest == nullptr) return;
  heaviest->source.Cancel(CancelReason::kMemoryBudget);
  telemetry::AddCounter("governor.jobs_cancelled", 1);
  std::fprintf(stderr,
               "[governor] over memory budget (%u MiB): cancelling job "
               "'%s' (%llu KiB solver footprint published)\n",
               budget_mb_, heaviest->label.c_str(),
               static_cast<unsigned long long>(heaviest_bytes / 1024));
}

void SessionMonitor::SampleLocked(const telemetry::ResourceUsage& usage) {
  // Snapshot() takes the registry mutex, never a hot-path lock; worker
  // threads touch mu_ only to register and release jobs.
  telemetry::MetricsSnapshot snapshot = registry_.Snapshot();
  telemetry::TimeSeriesSample sample;
  sample.timestamp_us = snapshot.timestamp_us;
  sample.resources = usage;
  sample.counters = std::move(snapshot.counters);
  sample.gauges = std::move(snapshot.gauges);
  if (ring_.size() >= kSampleCapacity) {
    ring_.pop_front();
    ++num_dropped_;
  }
  ring_.push_back(std::move(sample));
}

void SessionMonitor::Loop() {
  const Clock::duration sample_period =
      std::chrono::milliseconds(std::max<uint32_t>(sample_period_ms_, 1));
  const Clock::time_point never = Clock::time_point::max();
  std::unique_lock<std::mutex> lock(mu_);
  Clock::time_point next_poll =
      budget_mb_ > 0 ? Clock::now() + kPollPeriod : never;
  Clock::time_point next_sample =
      sampling_ ? Clock::now() + sample_period : never;
  while (!stop_) {
    Clock::time_point wake = std::min(next_poll, next_sample);
    for (const Job& job : jobs_) wake = std::min(wake, job.deadline);
    if (wake == never) {
      cv_.wait(lock);
    } else {
      cv_.wait_until(lock, wake);
    }
    if (stop_) break;

    const Clock::time_point now = Clock::now();
    for (Job& job : jobs_) {
      if (job.deadline <= now) {
        job.deadline = never;
        job.source.Cancel(CancelReason::kDeadline);
        telemetry::AddCounter("sched.watchdog.trips", 1);
      }
    }
    const bool poll = now >= next_poll;
    const bool sample = now >= next_sample;
    if (!poll && !sample) continue;
    // One probe serves both duties; it is a /proc read, so take it without
    // holding mu_ against job registration.
    lock.unlock();
    const telemetry::ResourceUsage usage = telemetry::SampleResourceUsage();
    lock.lock();
    if (poll) {
      GovernLocked(usage);
      next_poll = Clock::now() + kPollPeriod;
    }
    if (sample) {
      SampleLocked(usage);
      next_sample = Clock::now() + sample_period;
    }
  }
}

}  // namespace aqed::sched
