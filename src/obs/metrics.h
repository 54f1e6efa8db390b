// Low-overhead metrics for the NIPS/CI pipeline (§4.6's budget made
// visible): counters, gauges and power-of-two-bucket histograms behind a
// registry, plus a ScopedTimer for nanosecond latency capture.
//
// Design constraints, in order:
//   1. Hot-path cost. Metric mutations are single relaxed atomic RMWs on
//      handles the call site caches once; registration (the only locked
//      path) happens on first use. Even one uncontended RMW (~5 ns) is
//      too expensive for a per-tuple path that itself costs single-digit
//      nanoseconds, so the instrumented hot paths (NipsCi::Observe,
//      Nips::ObserveAt, FringeCell) accumulate events in plain member /
//      thread-local counters, and the ingesting thread folds them into
//      the registry at its read boundaries (estimate / serialize /
//      memory / tracked-itemset calls — see Nips::FlushMetrics).
//      Latency timers are sampled (kLatencySampleMask) so the
//      steady_clock reads amortize to under a tenth of a nanosecond per
//      tuple.
//   2. Zero cost when disabled. Two parallel implementations live side by
//      side: `real` (always compiled, so one build exercises both) and
//      `nullimpl` (every method an empty inline). The `obs::Counter` etc.
//      aliases pick one per the IMPLISTAT_METRICS macro (a CMake option,
//      default ON); call sites additionally guard with
//      IMPLISTAT_IF_METRICS so a disabled build emits no code at all —
//      not even the registration static's guard load.
//   3. Exporters stay pure. Snapshot() copies every value into plain
//      structs (RegistrySnapshot); the JSON/Prometheus writers in
//      export_json.h / export_prometheus.h are pure functions over that
//      copy and need no locks or I/O in the core.
//
// Thread safety: counters/gauges/histograms are safe for concurrent
// mutation from any thread; Snapshot() is consistent per metric (values
// are relaxed loads, so cross-metric skew of in-flight updates is
// possible — fine for monitoring).

#ifndef IMPLISTAT_OBS_METRICS_H_
#define IMPLISTAT_OBS_METRICS_H_

#ifndef IMPLISTAT_METRICS
#define IMPLISTAT_METRICS 1
#endif

#include <atomic>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace implistat::obs {

constexpr bool kMetricsEnabled = IMPLISTAT_METRICS != 0;

/// Estimator Observe() latency is sampled 1-in-(mask+1) to keep the two
/// clock reads off the common path. At ~65 ns for the clock pair and a
/// per-tuple update cost of single-digit nanoseconds, 1-in-1024 keeps
/// the amortized timing cost below 0.1 ns/tuple while a multi-million
/// tuple stream still collects thousands of samples.
constexpr uint64_t kLatencySampleMask = 1023;

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// Bucket i of a histogram counts values v with std::bit_width(v) == i,
/// i.e. bucket 0 holds exactly the zeros and bucket i >= 1 holds
/// [2^(i-1), 2^i). The inclusive upper bound of bucket i is 2^i - 1.
constexpr int kHistogramBuckets = 65;

/// Point-in-time copy of one metric — plain data, shared by the enabled
/// and disabled builds (exporters are compiled unconditionally).
struct MetricSnapshot {
  std::string name;
  std::string help;
  std::string label_key;    // empty when unlabelled
  std::string label_value;  // empty when unlabelled
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter_value = 0;
  int64_t gauge_value = 0;
  uint64_t hist_count = 0;
  uint64_t hist_sum = 0;
  std::vector<uint64_t> hist_buckets;  // size kHistogramBuckets
};

/// All registered metrics, sorted by (name, label_key, label_value) so
/// exporter output is deterministic and label variants of one family are
/// contiguous.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;
};

/// Inclusive upper bound of histogram bucket `i` (2^i - 1; UINT64_MAX for
/// the last bucket). Shared by both implementations and the exporters.
constexpr uint64_t HistogramBucketUpperBound(int i) {
  if (i <= 0) return 0;
  if (i >= 64) return ~uint64_t{0};
  return (uint64_t{1} << i) - 1;
}

// ---------------------------------------------------------------------------
// Real implementation (always compiled; aliased as obs::* when enabled).
// ---------------------------------------------------------------------------
namespace real {

class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

class Histogram {
 public:
  void Record(uint64_t value) {
    buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Named metrics, one optional (key, value) label per handle. Handles are
/// stable for the registry's lifetime; re-registering an existing
/// (name, label) returns the same handle, so independent translation
/// units can share a metric. Registering one name under two kinds aborts.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help = "",
                      std::string_view label_key = {},
                      std::string_view label_value = {});
  Gauge* GetGauge(std::string_view name, std::string_view help = "",
                  std::string_view label_key = {},
                  std::string_view label_value = {});
  Histogram* GetHistogram(std::string_view name, std::string_view help = "",
                          std::string_view label_key = {},
                          std::string_view label_value = {});

  RegistrySnapshot Snapshot() const;

  size_t NumMetrics() const;

  /// The process-wide registry the core instrumentation reports to.
  static MetricsRegistry& Global();

 private:
  struct Entry {
    MetricKind kind;
    std::string name, help, label_key, label_value;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& GetEntry(MetricKind kind, std::string_view name,
                  std::string_view help, std::string_view label_key,
                  std::string_view label_value);

  mutable std::mutex mu_;
  // Keyed by name + '\x01' + label_key + '\x01' + label_value: sorted, and
  // all label variants of one name are contiguous.
  std::map<std::string, Entry> metrics_;
};

/// Records the elapsed wall time, in nanoseconds, into a histogram when it
/// leaves scope. Null-safe: a null histogram skips the clock entirely.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : h_(h) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (h_ == nullptr) return;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    h_->Record(ns > 0 ? static_cast<uint64_t>(ns) : 0);
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace real

// ---------------------------------------------------------------------------
// Null implementation — the disabled fast path. Every method is an empty
// inline so instrumented call sites compile away; the registry hands out
// shared dummy handles and snapshots empty.
// ---------------------------------------------------------------------------
namespace nullimpl {

class Counter {
 public:
  void Increment(uint64_t = 1) {}
  uint64_t Value() const { return 0; }
};

class Gauge {
 public:
  void Set(int64_t) {}
  void Add(int64_t) {}
  int64_t Value() const { return 0; }
};

class Histogram {
 public:
  void Record(uint64_t) {}
  uint64_t Count() const { return 0; }
  uint64_t Sum() const { return 0; }
  uint64_t BucketCount(int) const { return 0; }
};

class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view, std::string_view = "",
                      std::string_view = {}, std::string_view = {}) {
    static Counter c;
    return &c;
  }
  Gauge* GetGauge(std::string_view, std::string_view = "",
                  std::string_view = {}, std::string_view = {}) {
    static Gauge g;
    return &g;
  }
  Histogram* GetHistogram(std::string_view, std::string_view = "",
                          std::string_view = {}, std::string_view = {}) {
    static Histogram h;
    return &h;
  }
  RegistrySnapshot Snapshot() const { return {}; }
  size_t NumMetrics() const { return 0; }
  static MetricsRegistry& Global() {
    static MetricsRegistry r;
    return r;
  }
};

class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram*) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
};

}  // namespace nullimpl

#if IMPLISTAT_METRICS
using Counter = real::Counter;
using Gauge = real::Gauge;
using Histogram = real::Histogram;
using MetricsRegistry = real::MetricsRegistry;
using ScopedTimer = real::ScopedTimer;
#else
using Counter = nullimpl::Counter;
using Gauge = nullimpl::Gauge;
using Histogram = nullimpl::Histogram;
using MetricsRegistry = nullimpl::MetricsRegistry;
using ScopedTimer = nullimpl::ScopedTimer;
#endif

}  // namespace implistat::obs

/// Guards an instrumentation statement so a disabled build discards it at
/// compile time (no handle lookup, no static-init guard, nothing).
#define IMPLISTAT_IF_METRICS(...)                           \
  do {                                                      \
    if constexpr (::implistat::obs::kMetricsEnabled) {      \
      __VA_ARGS__;                                          \
    }                                                       \
  } while (0)

#endif  // IMPLISTAT_OBS_METRICS_H_
