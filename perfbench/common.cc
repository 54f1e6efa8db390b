#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>
#include <unordered_map>

#include "core/nips_ci_ensemble.h"
#include "obs/instrumented_estimator.h"

namespace perfbench {

using namespace implistat;

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::Fail(const std::string& why) {
  if (correct) error = why;
  correct = false;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

namespace {

double CpuClockS(clockid_t clock) {
  struct timespec ts = {0, 0};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ThreadCpuS() { return CpuClockS(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuS() { return CpuClockS(CLOCK_PROCESS_CPUTIME_ID); }

void Histogram::Add(double x) {
  size_t bucket = 0;
  if (x > kMin) {
    bucket = static_cast<size_t>(std::log(x / kMin) / std::log(kGrowth));
  }
  ++buckets_[std::min(bucket, kBuckets - 1)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  const double rank = std::ceil(p * static_cast<double>(count_));
  const uint64_t want = rank < 1 ? 1 : static_cast<uint64_t>(rank);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= want) {
      return kMin * std::pow(kGrowth, static_cast<double>(i) + 0.5);
    }
  }
  return kMin * std::pow(kGrowth, static_cast<double>(kBuckets));
}

void ReportLatencies(const Histogram& query_us, const Histogram& poll_ms,
                     Report* report) {
  std::printf("query_samples=%llu query_p50_us=%.1f query_p99_us=%.1f "
              "poll_ms_p90=%.3f\n",
              static_cast<unsigned long long>(query_us.count()),
              query_us.Percentile(0.50), query_us.Percentile(0.99),
              poll_ms.Percentile(0.90));
  if (query_us.count() < kMinQuerySamples) {
    std::printf("WARNING fewer than %llu QUERY samples\n",
                static_cast<unsigned long long>(kMinQuerySamples));
  }
  report->Set("query_p50_us", query_us.Percentile(0.50), "us");
  report->Set("query_p99_us", query_us.Percentile(0.99), "us");
  report->Set("poll_ms_p90", poll_ms.Percentile(0.90), "ms");
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

std::string HostFacts() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (sched_getaffinity(0, sizeof(set), &set) == 0) nproc = CPU_COUNT(&set);
  return "nproc=" + std::to_string(nproc) + " compiler=\"" +
         PERFBENCH_COMPILER + "\" build_type=" + PERFBENCH_BUILD_TYPE +
         " IMPLISTAT_METRICS=" + (obs::kMetricsEnabled ? "ON" : "OFF");
}

void OpenLoop::Record(uint64_t k, uint64_t sent_ns, uint64_t done_ns) {
  const uint64_t due = due_ns(k);
  latency_us.push_back(static_cast<double>(done_ns > due ? done_ns - due : 0) *
                       1e-3);
  late_us.push_back(static_cast<double>(sent_ns > due ? sent_ns - due : 0) *
                    1e-3);
}

void SleepUntil(uint64_t due_ns) {
  const uint64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

void SpanCollector::Poll() {
  for (const obs::SpanRecord& record : obs::Tracer::Snapshot()) {
    if (seen_.insert(record.span_id).second) spans_.push_back(record);
  }
}

uint64_t CounterSum(const obs::RegistrySnapshot& snapshot,
                    const std::string& name) {
  uint64_t sum = 0;
  for (const obs::MetricSnapshot& metric : snapshot.metrics) {
    if (metric.name == name && metric.kind == obs::MetricKind::kCounter) {
      sum += metric.counter_value;
    }
  }
  return sum;
}

namespace {

bool Named(const obs::SpanRecord& span, const char* name) {
  return std::strcmp(span.name, name) == 0;
}

bool Annotation(const obs::SpanRecord& span, const char* key,
                uint64_t* value) {
  for (const auto& note : span.annotations) {
    if (note.key != nullptr && std::strcmp(note.key, key) == 0) {
      *value = note.value;
      return true;
    }
  }
  return false;
}

}  // namespace

ServerLedger AnalyzeServerSpans(const std::vector<obs::SpanRecord>& spans,
                                double wall_s) {
  ServerLedger out;
  // Self time: a span's duration minus its children on the same thread.
  // Children on another thread (a reactor's handle -> the writer's
  // handoff) run concurrently and are not subtracted.
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].span_id] = i;
  std::vector<uint64_t> child_ns(spans.size(), 0);
  std::vector<bool> nested(spans.size(), false);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto parent = by_id.find(spans[i].parent_id);
    if (spans[i].parent_id == 0 || parent == by_id.end()) continue;
    if (spans[parent->second].tid != spans[i].tid) continue;
    child_ns[parent->second] += spans[i].duration_ns;
    nested[i] = true;
  }
  auto self_us = [&](size_t i) {
    const uint64_t d = spans[i].duration_ns;
    return static_cast<double>(d > child_ns[i] ? d - child_ns[i] : 0) * 1e-3;
  };

  std::vector<double> handle, encode, write, apply_query, eval;
  Histogram queue_observe, queue_query;
  double apply_tuples_us = 0;
  uint64_t apply_tuples = 0;
  std::unordered_map<uint32_t, double> busy_us_by_tid;
  std::unordered_set<uint32_t> writer_tids, reactor_tids;
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& span = spans[i];
    if (std::strcmp(span.category, "client") == 0) continue;
    if (!nested[i]) {
      busy_us_by_tid[span.tid] += static_cast<double>(span.duration_ns) * 1e-3;
    }
    uint64_t note = 0;
    if (Named(span, "server.handle")) {
      reactor_tids.insert(span.tid);
      handle.push_back(self_us(i));
    } else if (Named(span, "server.encode")) {
      encode.push_back(self_us(i));
    } else if (Named(span, "server.write")) {
      write.push_back(self_us(i));
    } else if (Named(span, "server.apply")) {
      if (Annotation(span, "tuples", &note)) {
        apply_tuples_us += self_us(i);
        apply_tuples += note;
      } else if (Annotation(span, "queries", &note)) {
        apply_query.push_back(self_us(i));
      }
    } else if (Named(span, "server.reactor_handoff")) {
      writer_tids.insert(span.tid);
      if (Annotation(span, "queue_ns", &note)) {
        const double us = static_cast<double>(note) * 1e-3;
        if (std::strcmp(span.detail, "observe_batch") == 0) {
          queue_observe.Add(us);
        } else if (std::strcmp(span.detail, "query") == 0) {
          queue_query.Add(us);
        }
      }
    } else if (Named(span, "trigger.eval")) {
      eval.push_back(static_cast<double>(span.duration_ns) * 1e-3);
    }
  }
  out.apply_ns_per_tuple =
      apply_tuples == 0 ? 0
                        : apply_tuples_us * 1e3 /
                              static_cast<double>(apply_tuples);
  out.handle_us = Mean(handle);
  out.encode_us = Mean(encode);
  out.write_us = Mean(write);
  out.apply_query_us = Mean(apply_query);
  out.queue_observe_p50_us = queue_observe.Percentile(0.50);
  out.queue_observe_p99_us = queue_observe.Percentile(0.99);
  out.queue_query_p50_us = queue_query.Percentile(0.50);
  out.queue_query_p99_us = queue_query.Percentile(0.99);
  out.cql_eval_us = Mean(eval);
  out.cql_evals = static_cast<double>(eval.size());
  // Rounds run one after another, each with its own server threads, so
  // busy time is summed per role (writer: handoff spans; reactor: handle
  // spans) across rounds; the busier role bounds throughput.
  double writer_us = 0;
  double reactor_us = 0;
  for (const auto& [tid, busy] : busy_us_by_tid) {
    if (writer_tids.count(tid) != 0) writer_us += busy;
    if (reactor_tids.count(tid) != 0) reactor_us += busy;
  }
  const double busiest = std::max(writer_us, reactor_us);
  out.covered_frac = wall_s > 0 ? std::min(1.0, busiest * 1e-6 / wall_s) : 0;
  return out;
}

double FringeFill(const QueryEngine& engine) {
  std::vector<double> fills;
  for (const QueryEngine::FoldUnit& unit : engine.FoldUnits()) {
    auto est = engine.Estimator(unit.representative);
    if (!est.ok()) continue;
    const auto* nips = dynamic_cast<const NipsCi*>(obs::Unwrap(*est));
    if (nips == nullptr || nips->num_bitmaps() == 0) continue;
    const size_t budget = nips->bitmap(0).ItemBudget() *
                          static_cast<size_t>(nips->num_bitmaps());
    if (budget == 0) continue;
    fills.push_back(static_cast<double>(nips->TrackedItemsets()) /
                    static_cast<double>(budget));
  }
  return Mean(fills);
}

namespace {
volatile double g_answer_sink = 0;  // keeps the timed readouts observable
}  // namespace

double AnswerExUs(const QueryEngine& engine) {
  const std::vector<QueryId> ids = engine.ActiveQueryIds();
  if (ids.empty()) return 0;
  constexpr int kReps = 5;
  double sink = 0;
  const uint64_t start = NowNs();
  for (int rep = 0; rep < kReps; ++rep) {
    for (QueryId id : ids) {
      auto answer = engine.AnswerEx(id);
      if (answer.ok()) sink += answer->std_error;
    }
  }
  const double us = SecondsSince(start) * 1e6;
  g_answer_sink = sink;
  return us / (kReps * static_cast<double>(ids.size()));
}

std::vector<double> ExactAnswers(const Schema& schema,
                                 std::vector<ImplicationQuerySpec> specs,
                                 const std::vector<ValueId>& tape,
                                 size_t width) {
  QueryEngine exact(schema);
  std::vector<QueryId> ids;
  for (ImplicationQuerySpec& spec : specs) {
    spec.estimator = EstimatorConfig();
    spec.estimator.kind = EstimatorKind::kExact;
    spec.label.clear();
    auto id = exact.Register(std::move(spec));
    ids.push_back(id.ok() ? *id : -1);
  }
  for (size_t i = 0; i + width <= tape.size(); i += width) {
    exact.ObserveTuple(TupleRef(tape.data() + i, width));
  }
  std::vector<double> answers;
  for (QueryId id : ids) {
    auto answer = id < 0 ? StatusOr<double>(Status::Internal("unregistered"))
                         : exact.Answer(id);
    answers.push_back(answer.ok() ? *answer : -1);
  }
  return answers;
}

double MedianRelErr(const std::vector<double>& estimates,
                    const std::vector<double>& exact) {
  std::vector<double> errs;
  for (size_t i = 0; i < estimates.size() && i < exact.size(); ++i) {
    if (exact[i] <= 0) continue;
    errs.push_back(std::fabs(estimates[i] - exact[i]) / exact[i]);
  }
  return Median(errs);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace perfbench
