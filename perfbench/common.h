// Shared plumbing for the perfbench workloads: run arguments, the metric
// report every workload fills, order statistics, clocks, host facts, the
// span collector for the traced run, and the per-layer ledger helpers.
//
// Every workload follows one shape:
//   1. build its seeded inputs (tape, pre-encoded frames) untimed;
//   2. repeat rounds — set up the system, drive the timed load, tear it
//      down — until --seconds of rounds have run;
//   3. verify every round's outputs against twins and exact ground truth
//      (a mismatch fails the run, it never becomes a number);
//   4. report the end-to-end metrics (--trace 0) or the per-layer metrics
//      (--trace 1).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "query/query.h"
#include "stream/itemset.h"
#include "stream/schema.h"

namespace perfbench {

using implistat::ValueId;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(). `correct` is false when any
/// self-verification failed; `error` then says which.
struct Report {
  bool correct = true;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& why);
};

// --- clocks and order statistics -------------------------------------------

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// CPU time consumed so far by the calling thread / the whole process,
/// in seconds. Unlike wall time it excludes time the thread spent
/// runnable but not running (including steal on a shared host).
double ThreadCpuS();
double ProcessCpuS();

double Median(std::vector<double> xs);
double Mean(const std::vector<double>& xs);

/// Log-bucketed sample histogram (1% relative resolution over 1e-2 to
/// 1e9): percentiles of arbitrarily long runs in fixed memory, so a run's
/// peak RSS does not grow with how many samples it took.
class Histogram {
 public:
  void Add(double x);
  void Add(const std::vector<double>& xs) {
    for (double x : xs) Add(x);
  }
  void Merge(const Histogram& other);
  /// Nearest-rank percentile (p in [0, 1]), reported at the geometric
  /// middle of its bucket; 0 when empty.
  double Percentile(double p) const;
  uint64_t count() const { return count_; }

 private:
  static constexpr double kMin = 1e-2;
  static constexpr double kGrowth = 1.01;
  static constexpr size_t kBuckets = 2600;
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count_ = 0;
};

/// Smallest QUERY sample a run's latency percentiles come from, so that
/// p99 has at least ten samples beyond it.
inline constexpr uint64_t kMinQuerySamples = 1000;

/// Prints the QUERY sample count and latency percentiles, and sets the
/// latency rows of the traced run: query_p50_us, query_p99_us and
/// poll_ms_p90 (`poll_ms`: per-frame ack or per-poll times).
void ReportLatencies(const Histogram& query_us, const Histogram& poll_ms,
                     Report* report);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// One line of host facts (nproc, compiler, build type, metrics flag).
std::string HostFacts();

// --- open-loop load generator ----------------------------------------------

/// Schedule and lateness bookkeeping for an open-loop request stream:
/// request k is due at start + k / rate, whatever happened to the
/// requests before it. Latency is measured from the due time, so a stall
/// is charged to every request it delays.
class OpenLoop {
 public:
  OpenLoop(double rate_per_s, uint64_t start_ns)
      : interval_ns_(1e9 / rate_per_s), start_ns_(start_ns) {}

  uint64_t due_ns(uint64_t k) const {
    return start_ns_ +
           static_cast<uint64_t>(interval_ns_ * static_cast<double>(k));
  }
  /// Records request k, sent at `sent_ns` and answered at `done_ns`.
  void Record(uint64_t k, uint64_t sent_ns, uint64_t done_ns);
  /// Shifts the rest of the schedule by `ns` (time the benchmark spent on
  /// its own verification, during which no requests are due).
  void Pause(uint64_t ns) { start_ns_ += ns; }

  std::vector<double> latency_us;
  std::vector<double> late_us;
  /// Time the generator spent sending and receiving (not waiting).
  uint64_t busy_ns = 0;

 private:
  double interval_ns_;
  uint64_t start_ns_;
};

/// Sleeps until `due_ns` (steady clock) unless it has already passed.
void SleepUntil(uint64_t due_ns);

// --- traced run -------------------------------------------------------------

/// Accumulates finished spans from the tracer's per-thread rings. The
/// rings are a fixed-size flight recorder, so the collector is polled
/// often during a traced run and de-duplicates by span id.
class SpanCollector {
 public:
  void Poll();
  const std::vector<implistat::obs::SpanRecord>& spans() const {
    return spans_;
  }

 private:
  std::unordered_set<uint64_t> seen_;
  std::vector<implistat::obs::SpanRecord> spans_;
};

/// Sum of a counter family (all label values) in a registry snapshot.
uint64_t CounterSum(const implistat::obs::RegistrySnapshot& snapshot,
                    const std::string& name);

/// Per-layer metrics read from server spans: net.*,
/// query.apply_ns_per_tuple, cql.*, and how much of the traced wall time
/// the server's spans cover (for unexplained_frac). Zero for a layer the
/// workload never reached.
struct ServerLedger {
  double apply_ns_per_tuple = 0;
  double handle_us = 0;
  double encode_us = 0;
  double write_us = 0;
  double apply_query_us = 0;
  double queue_observe_p50_us = 0;
  double queue_observe_p99_us = 0;
  double queue_query_p50_us = 0;
  double queue_query_p99_us = 0;
  double cql_eval_us = 0;
  double cql_evals = 0;
  /// Busy time covered by top-level spans in the busier server role
  /// (writer or reactor), as a share of the traced wall time.
  double covered_frac = 0;
};
ServerLedger AnalyzeServerSpans(
    const std::vector<implistat::obs::SpanRecord>& spans, double wall_s);

/// The library's layers timed from the benchmark on one workload's
/// inputs: hash, pack, WHERE, bare and wrapped Observe, answer readout,
/// seal and decode.
struct LedgerInput {
  const implistat::Schema* schema = nullptr;
  /// Row-major tape, `width` ids per tuple.
  const std::vector<ValueId>* tape = nullptr;
  size_t width = 0;
  /// The workload's live synopsis templates (pack, WHERE, observe).
  std::vector<implistat::ImplicationQuerySpec> templates;
  /// Pre-encoded OBSERVE_BATCH request payloads (not frames).
  const std::vector<std::string>* payloads = nullptr;
};
void MeasureLayers(const LedgerInput& input, Report* report);

/// Reads the fill of every NIPS/CI synopsis in `engine`: tracked
/// itemsets over the §4.6 budget, averaged over synopses.
double FringeFill(const implistat::QueryEngine& engine);

/// Mean wall time of QueryEngine::AnswerEx over the active queries, us.
double AnswerExUs(const implistat::QueryEngine& engine);

/// Exact answers for `specs` over `tape`, using the library's exact
/// counter (EstimatorKind::kExact) with each spec's conditions and WHERE.
std::vector<double> ExactAnswers(
    const implistat::Schema& schema,
    std::vector<implistat::ImplicationQuerySpec> specs,
    const std::vector<ValueId>& tape, size_t width);

/// Median over pairs of |estimate - exact| / exact, skipping exact == 0.
double MedianRelErr(const std::vector<double>& estimates,
                    const std::vector<double>& exact);

/// Bitwise equality of two doubles (NaN-safe, -0 != +0).
bool SameBits(double a, double b);

// --- workloads ---------------------------------------------------------------

Report RunTenantsWide(const Args& args);
Report RunNarrowChatty(const Args& args);
Report RunFleetPoll(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
