// fleet_poll: 128 in-process edge QueryEngines, each hosting one NIPS/CI
// query and one sliding-window query over a disjoint slice of one seeded
// netflow tape, polled by an aggregator the way AggregatorSupervisor
// polls them, on one thread. Every poll:
//   * each edge ingests a 200-tuple increment;
//   * each edge ships SerializeDelta -> WrapDeltaSnapshot (RLE allowed)
//     per query;
//   * the aggregator applies every patch to its twin of that edge
//     (ApplyDeltaSnapshot), refolds the NIPS/CI fold unit from the twins'
//     states (RefoldSynopsisState), and reads the answer.
// The sliding estimator has no MergeFrom, so its twins are the
// aggregator's per-edge view and are not refolded.
//
// QUERY is open-loop at 200/s against the aggregate; requests that fall
// due mid-poll wait for the current step (one edge's apply, or the whole
// refold), like ops queued behind the aggregator's single writer.
//
// Self-verification after every poll: each twin serializes byte-identical
// to its edge's estimator, and the refolded aggregate serializes
// byte-identical to a fold of the edges' own full snapshots.

#include <cstdio>
#include <memory>

#include "common.h"
#include "datagen/netflow_gen.h"
#include "delta/delta.h"
#include "served.h"

namespace perfbench {

using namespace implistat;

namespace {

constexpr int kEdges = 128;
constexpr uint64_t kWarmup = 2000;
constexpr uint64_t kIncrement = 200;
constexpr int kPollsPerRound = 5;
constexpr uint64_t kSliceTuples = kWarmup + kPollsPerRound * kIncrement;
constexpr size_t kWidth = 4;
constexpr double kQueryRate = 200;
constexpr int kQueries = 2;  // per edge: 0 = NIPS/CI, 1 = sliding

ImplicationQuerySpec NipsSpec() {
  ImplicationQuerySpec spec;
  spec.a_attributes = {"Source"};
  spec.b_attributes = {"Destination"};
  spec.conditions.max_multiplicity = 1;
  spec.conditions.min_support = 2;
  spec.conditions.min_top_confidence = 1.0;
  spec.conditions.confidence_c = 1;
  spec.conditions.strict_multiplicity = false;
  spec.estimator.kind = EstimatorKind::kNipsCi;
  spec.estimator.nips.num_bitmaps = 64;
  spec.estimator.nips.seed = 5;
  spec.label = "fleet";
  return spec;
}

/// The sliding-window query keeps one NIPS/CI per stride of the window,
/// so it runs at m=8 (the shape bench/fleet_scale measures).
ImplicationQuerySpec SlidingSpec() {
  ImplicationQuerySpec spec = NipsSpec();
  spec.estimator.nips.num_bitmaps = 8;
  spec.estimator.window = 1000;
  spec.estimator.stride = 100;
  spec.label = "fleet_window";
  return spec;
}

struct Edge {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<ImplicationEstimator> twin[kQueries];
  uint64_t acked[kQueries] = {0, 0};
};

/// Per-call timings of the traced run, and the bytes of every patch.
struct PollLedger {
  std::vector<double> serialize_us[kQueries];
  std::vector<double> apply_us[kQueries];
  std::vector<double> wrap_us, unwrap_us, refold_ms;
  uint64_t raw_bytes = 0;
  uint64_t sealed_bytes = 0;
  uint64_t resyncs = 0;
  double covered_s = 0;  // poll time spent inside timed library calls
  double poll_s = 0;
};

struct RoundStats {
  double setup_s = 0;
  double ingest_s = 0;
  double cpu_s = 0;  // thread CPU over the ingest and poll phases
  uint64_t tuples = 0;
  std::vector<double> poll_ms;
  uint64_t shipped_bytes = 0;
  double final_estimate = 0;
  uint64_t synopsis_bytes = 0;
  int live_synopses = 0;
  double fringe_fill = 0;
  double answer_ex_us = 0;
  Histogram query_us, late_us;
  uint64_t query_busy_ns = 0;
  double active_s = 0;  // time the query schedule ran (verification excluded)
};

/// One round: set up the fleet and the aggregator, then poll.
class FleetRound {
 public:
  FleetRound(const Schema& schema, const std::vector<ValueId>& tape,
             PollLedger* ledger, Report* report)
      : schema_(schema), tape_(tape), ledger_(ledger), report_(report) {}

  RoundStats Run() {
    RoundStats stats;
    if (!SetUp(&stats)) return stats;
    OpenLoop loop(kQueryRate, NowNs());
    loop_ = &loop;
    const uint64_t active_start = NowNs();
    uint64_t paused_ns = 0;
    for (int poll = 0; poll < kPollsPerRound && report_->correct; ++poll) {
      const uint64_t ingest_start = NowNs();
      const double cpu_start = ThreadCpuS();
      for (int e = 0; e < kEdges; ++e) {
        const uint64_t first = static_cast<uint64_t>(e) * kSliceTuples +
                               kWarmup + static_cast<uint64_t>(poll) * kIncrement;
        Feed(edges_[static_cast<size_t>(e)], first, first + kIncrement);
        stats.tuples += kIncrement;
        ServeDue();
      }
      stats.ingest_s += SecondsSince(ingest_start);

      const uint64_t poll_start = NowNs();
      const uint64_t shipped = Poll();
      const double poll_s = SecondsSince(poll_start);
      stats.poll_ms.push_back(poll_s * 1e3);
      stats.shipped_bytes += shipped;
      stats.cpu_s += ThreadCpuS() - cpu_start;
      if (ledger_ != nullptr) ledger_->poll_s += poll_s;

      const uint64_t verify_start = NowNs();
      TimeUnwraps();
      Verify(poll);
      const uint64_t verify_ns = NowNs() - verify_start;
      loop.Pause(verify_ns);
      paused_ns += verify_ns;
    }
    stats.active_s =
        static_cast<double>(NowNs() - active_start - paused_ns) * 1e-9;
    loop_ = nullptr;
    auto final_answer = aggregator_->AnswerEx(0);
    stats.final_estimate = final_answer.ok() ? final_answer->estimate : -1;
    for (const Edge& edge : edges_) {
      stats.synopsis_bytes += edge.engine->TotalSynopsisMemoryBytes();
      stats.live_synopses += edge.engine->num_synopses();
    }
    stats.synopsis_bytes += aggregator_->TotalSynopsisMemoryBytes();
    stats.live_synopses += aggregator_->num_synopses();
    stats.fringe_fill = FringeFill(*aggregator_);
    stats.answer_ex_us = AnswerExUs(*aggregator_);
    stats.query_us.Add(loop.latency_us);
    stats.late_us.Add(loop.late_us);
    stats.query_busy_ns = loop.busy_ns;
    return stats;
  }

 private:
  void Feed(Edge& edge, uint64_t begin, uint64_t end) {
    for (uint64_t t = begin; t < end; ++t) {
      edge.engine->ObserveTuple(TupleRef(tape_.data() + t * kWidth, kWidth));
    }
  }

  bool SetUp(RoundStats* stats) {
    const uint64_t start = NowNs();
    uint64_t warmup_ns = 0;  // the edges' stream history, not set-up
    edges_.resize(kEdges);
    for (int e = 0; e < kEdges; ++e) {
      Edge& edge = edges_[static_cast<size_t>(e)];
      edge.engine = std::make_unique<QueryEngine>(schema_);
      if (!edge.engine->Register(NipsSpec()).ok() ||
          !edge.engine->Register(SlidingSpec()).ok()) {
        report_->Fail("edge registration failed");
        return false;
      }
      const uint64_t first = static_cast<uint64_t>(e) * kSliceTuples;
      const uint64_t feed_start = NowNs();
      Feed(edge, first, first + kWarmup);
      warmup_ns += NowNs() - feed_start;
      // Bootstrap pull: full snapshot, twin materialized, epoch noted —
      // the supervisor's first round against a fresh edge.
      const uint64_t epoch = edge.engine->tuples_seen();
      for (int q = 0; q < kQueries; ++q) {
        const ImplicationEstimator* est = *edge.engine->Estimator(q);
        auto full = est->SerializeState();
        auto twin = full.ok() ? MaterializeEstimator(*full)
                              : StatusOr<std::unique_ptr<ImplicationEstimator>>(
                                    full.status());
        if (!twin.ok()) {
          report_->Fail("bootstrap: " + twin.status().ToString());
          return false;
        }
        edge.twin[q] = std::move(*twin);
        est->NoteSnapshotEpoch(epoch);
        edge.acked[q] = epoch;
      }
    }
    aggregator_ = std::make_unique<QueryEngine>(schema_);
    if (!aggregator_->Register(NipsSpec()).ok()) {
      report_->Fail("aggregator registration failed");
      return false;
    }
    fold_units_ = aggregator_->FoldUnits();
    if (fold_units_.size() != 1) {
      report_->Fail("aggregator should have one fold unit");
      return false;
    }
    stats->setup_s = static_cast<double>(NowNs() - start - warmup_ns) * 1e-9;
    return true;
  }

  /// Answers every QUERY that has fallen due (the aggregate's AnswerEx,
  /// jackknife std-error included).
  void ServeDue() {
    if (loop_ == nullptr) return;
    while (NowNs() >= loop_->due_ns(queries_)) {
      const uint64_t sent = NowNs();
      auto answer = aggregator_->AnswerEx(0);
      const uint64_t done = NowNs();
      loop_->Record(queries_++, sent, done);
      loop_->busy_ns += done - sent;
      ++report_->attempted;
      if (!answer.ok()) ++report_->failed;
      served_in_poll_ns_ += done - sent;
    }
  }

  /// One aggregator poll; returns the sealed bytes shipped.
  uint64_t Poll() {
    uint64_t shipped = 0;
    uint64_t covered_ns = 0;
    served_in_poll_ns_ = 0;
    std::vector<std::string> nips_states(edges_.size());
    uint64_t total_epochs = 0;
    for (size_t e = 0; e < edges_.size(); ++e) {
      Edge& edge = edges_[e];
      const uint64_t epoch = edge.engine->tuples_seen();
      total_epochs += epoch;
      for (int q = 0; q < kQueries; ++q) {
        const ImplicationEstimator* est = *edge.engine->Estimator(q);
        ++report_->attempted;
        const uint64_t t0 = NowNs();
        auto fragment = est->SerializeDelta(edge.acked[q], epoch);
        const uint64_t t1 = NowNs();
        if (!fragment.ok()) {
          ++report_->failed;
          if (ledger_ != nullptr) ++ledger_->resyncs;
          report_->Fail("SerializeDelta: " + fragment.status().ToString());
          return shipped;
        }
        std::string sealed = WrapDeltaSnapshot(edge.acked[q], epoch, *fragment,
                                               /*allow_rle=*/true);
        const uint64_t t2 = NowNs();
        shipped += sealed.size();
        auto applied = ApplyDeltaSnapshot(edge.twin[q].get(), sealed,
                                          edge.acked[q]);
        const uint64_t t3 = NowNs();
        if (!applied.ok()) {
          ++report_->failed;
          report_->Fail("delta apply: " + applied.status().ToString());
          return shipped;
        }
        edge.acked[q] = epoch;
        covered_ns += t3 - t0;
        if (ledger_ != nullptr) {
          ledger_->serialize_us[q].push_back(static_cast<double>(t1 - t0) * 1e-3);
          ledger_->wrap_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
          ledger_->sealed_bytes += sealed.size();
          sealed_.push_back({q, std::move(sealed), t3 - t2});
        }
      }
      // The twin now mirrors the edge, so its state is what a full pull
      // would have shipped — the fold input.
      const uint64_t s0 = NowNs();
      auto state = edge.twin[0]->SerializeState();
      covered_ns += NowNs() - s0;
      if (!state.ok()) {
        report_->Fail("twin serialize failed");
        return shipped;
      }
      nips_states[e] = std::move(*state);
      ServeDue();
    }
    std::vector<std::string_view> views(nips_states.begin(), nips_states.end());
    const uint64_t r0 = NowNs();
    Status folded =
        aggregator_->RefoldSynopsisState(fold_units_[0].synopsis, views);
    const uint64_t r1 = NowNs();
    covered_ns += r1 - r0;
    if (ledger_ != nullptr) {
      ledger_->refold_ms.push_back(static_cast<double>(r1 - r0) * 1e-6);
    }
    if (!folded.ok()) {
      report_->Fail("refold: " + folded.ToString());
      return shipped;
    }
    aggregator_->SetTuplesSeen(total_epochs);
    ServeDue();
    const uint64_t a0 = NowNs();
    auto answer = aggregator_->AnswerEx(0);
    covered_ns += NowNs() - a0;
    if (!answer.ok()) report_->Fail("aggregate answer failed");
    if (ledger_ != nullptr) {
      ledger_->covered_s +=
          static_cast<double>(covered_ns + served_in_poll_ns_) * 1e-9;
    }
    return shipped;
  }

  /// Traced run, outside the poll's timing: unwraps each patch the poll
  /// applied on its own, which splits ApplyDeltaSnapshot's time into the
  /// unwrap (delta.unwrap_us) and the estimator's apply (the rest).
  void TimeUnwraps() {
    for (const Sealed& patch : sealed_) {
      DeltaInfo info;
      const uint64_t t0 = NowNs();
      auto raw = UnwrapDeltaSnapshot(patch.bytes, &info);
      const uint64_t unwrap_ns = NowNs() - t0;
      if (!raw.ok()) return report_->Fail("unwrap of an applied patch failed");
      ledger_->raw_bytes += raw->size();
      ledger_->unwrap_us.push_back(static_cast<double>(unwrap_ns) * 1e-3);
      ledger_->apply_us[patch.query].push_back(
          (static_cast<double>(patch.apply_ns) -
           static_cast<double>(unwrap_ns)) *
          1e-3);
    }
    sealed_.clear();
  }

  void Verify(int poll) {
    if (!report_->correct) return;
    const std::string where = " after poll " + std::to_string(poll);
    std::unique_ptr<ImplicationEstimator> fold;
    {
      const ImplicationQuerySpec spec = NipsSpec();
      auto made = MakeEstimator(spec.conditions, spec.estimator);
      if (!made.ok()) return report_->Fail("fold estimator");
      fold = std::move(*made);
    }
    for (Edge& edge : edges_) {
      for (int q = 0; q < kQueries; ++q) {
        auto mine = (*edge.engine->Estimator(q))->SerializeState();
        auto twin = edge.twin[q]->SerializeState();
        if (!mine.ok() || !twin.ok() || *mine != *twin) {
          return report_->Fail("twin diverged from its edge" + where);
        }
        if (q == 0) {
          auto full = MaterializeEstimator(*mine);
          if (!full.ok() || !fold->MergeFrom(**full).ok()) {
            return report_->Fail("full-snapshot fold failed" + where);
          }
        }
      }
    }
    auto aggregate = (*aggregator_->Estimator(0))->SerializeState();
    auto expected = fold->SerializeState();
    if (!aggregate.ok() || !expected.ok() || *aggregate != *expected) {
      report_->Fail("refolded aggregate differs from a full-snapshot fold" +
                    where);
    }
  }

  const Schema& schema_;
  const std::vector<ValueId>& tape_;
  PollLedger* ledger_;
  Report* report_;
  std::vector<Edge> edges_;
  std::unique_ptr<QueryEngine> aggregator_;
  std::vector<QueryEngine::FoldUnit> fold_units_;
  /// Traced run: the patches of the current poll and the time
  /// ApplyDeltaSnapshot took on each.
  struct Sealed {
    int query;
    std::string bytes;
    uint64_t apply_ns;
  };
  std::vector<Sealed> sealed_;
  OpenLoop* loop_ = nullptr;
  uint64_t queries_ = 0;
  uint64_t served_in_poll_ns_ = 0;
};

/// Runs rounds until `seconds` have passed and kMinQuerySamples QUERY
/// latencies are in (capped at three times `seconds`);
/// `first_round_peak_rss_mb` (if set) gets the process's peak RSS once
/// the first round ended.
std::vector<RoundStats> RunRounds(const Schema& schema,
                                  const std::vector<ValueId>& tape,
                                  double seconds, PollLedger* ledger,
                                  Report* report,
                                  double* first_round_peak_rss_mb = nullptr) {
  std::vector<RoundStats> rounds;
  uint64_t samples = 0;
  const uint64_t start = NowNs();
  while (report->correct &&
         (rounds.empty() || SecondsSince(start) < seconds ||
          (samples < kMinQuerySamples && SecondsSince(start) < 3 * seconds))) {
    FleetRound round(schema, tape, ledger, report);
    rounds.push_back(round.Run());
    samples += rounds.back().query_us.count();
    std::fprintf(stderr, "round %zu: setup_ms=%.3f\n", rounds.size(),
                 rounds.back().setup_s * 1e3);
    if (rounds.size() == 1 && first_round_peak_rss_mb != nullptr) {
      *first_round_peak_rss_mb = PeakRssMb();
    }
  }
  return rounds;
}

/// Tuples the edges ingested per second of edge ingest, over all rounds.
double IngestMtps(const std::vector<RoundStats>& rounds) {
  double tuples = 0;
  double seconds = 0;
  for (const RoundStats& r : rounds) {
    tuples += static_cast<double>(r.tuples);
    seconds += r.ingest_s;
  }
  return seconds > 0 ? tuples / seconds / 1e6 : 0;
}

}  // namespace

Report RunFleetPoll(const Args& args) {
  Report report;
  const uint64_t n = static_cast<uint64_t>(kEdges) * kSliceTuples;
  NetflowGenParams params;
  params.seed = args.seed;
  params.tuples_per_hour = n / 24 + 1;
  NetflowGenerator generator(params);
  const Schema schema = generator.schema();
  std::vector<ValueId> tape;
  tape.reserve(n * kWidth);
  while (tape.size() < n * kWidth) {
    auto row = generator.Next();
    tape.insert(tape.end(), row->begin(), row->end());
  }

  auto check_final = [&](const std::vector<RoundStats>& rounds) {
    // Rounds replay the same tape in the same order: their final answers
    // must agree bit for bit.
    for (const RoundStats& r : rounds) {
      if (!SameBits(r.final_estimate, rounds.front().final_estimate)) {
        report.Fail("rounds disagree on the final aggregate answer");
      }
    }
    report.Set("answer_rel_err",
               MedianRelErr({rounds.front().final_estimate},
                            ExactAnswers(schema, {NipsSpec()}, tape, kWidth)),
               "ratio");
  };

  // Speed and latency rows: the end-to-end run reports them as text, the
  // traced run as rows from its untraced half.
  auto report_speed = [&](const std::vector<RoundStats>& rounds) {
    Histogram poll_ms, query_us;
    double cpu_s = 0, tuples = 0;
    for (const RoundStats& r : rounds) {
      poll_ms.Add(r.poll_ms);
      query_us.Merge(r.query_us);
      cpu_s += r.cpu_s;
      tuples += static_cast<double>(r.tuples);
    }
    std::printf("rounds=%zu polls=%llu\n", rounds.size(),
                static_cast<unsigned long long>(poll_ms.count()));
    report.Set("ingest_mtps", IngestMtps(rounds), "Mt/s");
    report.Set("cpu_ns_per_tuple", cpu_s * 1e9 / tuples, "ns");
    report.Set("poll_ms_p50", poll_ms.Percentile(0.50), "ms");
    ReportLatencies(query_us, poll_ms, &report);
  };

  if (!args.trace) {
    double peak_rss = 0;
    std::vector<RoundStats> rounds =
        RunRounds(schema, tape, args.seconds, nullptr, &report, &peak_rss);
    if (!report.correct) return report;
    check_final(rounds);
    std::vector<double> setups;
    uint64_t shipped = 0, polls = 0;
    for (const RoundStats& r : rounds) {
      setups.push_back(r.setup_s);
      shipped += r.shipped_bytes;
      polls += r.poll_ms.size();
    }
    report_speed(rounds);
    report.Set("setup_s", Median(setups), "s");
    report.Set("ship_kb_per_poll",
               static_cast<double>(shipped) / static_cast<double>(polls) /
                   1024.0,
               "KB");
    report.Set("synopsis_kb",
               static_cast<double>(rounds.back().synopsis_bytes) / 1024.0, "KB");
    report.Set("peak_rss_mb", peak_rss, "MB");
    return report;
  }

  // Traced run: an untraced half, then a half with every library call of
  // the poll timed on its own.
  std::vector<RoundStats> untraced =
      RunRounds(schema, tape, args.seconds / 2, nullptr, &report);
  PollLedger ledger;
  obs::Tracer::SetSampleEveryN(1);
  std::vector<RoundStats> traced =
      RunRounds(schema, tape, args.seconds / 2, &ledger, &report);
  obs::Tracer::SetSampleEveryN(0);
  if (!report.correct) return report;
  std::vector<RoundStats> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  check_final(all);

  std::vector<std::string> payloads = EncodePayloads(tape, kWidth, kIncrement);
  payloads.resize(std::min<size_t>(payloads.size(), 1000));
  LedgerInput input;
  input.schema = &schema;
  input.tape = &tape;
  input.width = kWidth;
  input.templates = {NipsSpec(), SlidingSpec()};
  input.payloads = &payloads;
  MeasureLayers(input, &report);

  const char* kinds[kQueries] = {"nips_ci", "sliding"};
  for (int q = 0; q < kQueries; ++q) {
    report.Set(std::string("core.delta_serialize_us.") + kinds[q],
               Median(ledger.serialize_us[q]), "us");
    report.Set(std::string("core.delta_apply_us.") + kinds[q],
               Median(ledger.apply_us[q]), "us");
  }
  report.Set("delta.wrap_us", Median(ledger.wrap_us), "us");
  report.Set("delta.unwrap_us", Median(ledger.unwrap_us), "us");
  report.Set("delta.rle_ratio",
             ledger.sealed_bytes == 0
                 ? 0
                 : static_cast<double>(ledger.raw_bytes) /
                       static_cast<double>(ledger.sealed_bytes),
             "ratio");
  report.Set("delta.resyncs", static_cast<double>(ledger.resyncs), "count");
  report.Set("query.refold_ms", Median(ledger.refold_ms), "ms");

  // Edge ingest is ObserveTuple on engines, the path a served OBSERVE
  // would take minus the socket.
  double ingest_s = 0;
  uint64_t tuples = 0;
  for (const RoundStats& r : traced) {
    ingest_s += r.ingest_s;
    tuples += r.tuples;
  }
  const double apply_ns = tuples > 0 ? ingest_s * 1e9 / static_cast<double>(tuples) : 0;
  report.Set("query.apply_ns_per_tuple", apply_ns, "ns");
  double per_tuple_work = 0;
  for (const Metric& metric : report.metrics) {
    if (metric.name == "stream.pack_ns") per_tuple_work += 4 * metric.value;
    if (metric.name == "core.observe_ns") per_tuple_work += 2 * metric.value;
  }
  report.Set("query.overhead_ratio",
             per_tuple_work > 0 ? apply_ns / per_tuple_work : 0, "ratio");
  const RoundStats& last = traced.back();
  report.Set("query.answer_ex_us", last.answer_ex_us, "us");
  report.Set("query.live_synopses", last.live_synopses, "count");
  report.Set("core.fringe_fill", last.fringe_fill, "ratio");
  const double untraced_rate = IngestMtps(untraced);
  report.Set("obs.trace_overhead_frac",
             untraced_rate > 0 ? 1.0 - IngestMtps(traced) / untraced_rate : 0,
             "ratio");
  report.Set("unexplained_frac",
             ledger.poll_s > 0 ? 1.0 - ledger.covered_s / ledger.poll_s : 0,
             "ratio");

  // No server, sockets or triggers on this workload's path.
  for (const char* name :
       {"net.handle_us", "net.encode_us", "net.write_us", "net.apply_query_us",
        "net.queue_wait_us_p50.observe_batch",
        "net.queue_wait_us_p99.observe_batch", "net.queue_wait_us_p50.query",
        "net.queue_wait_us_p99.query", "cql.eval_us"}) {
    report.Set(name, 0, "us");
  }
  report.Set("cql.evals", 0, "count");
  report.Set("net.wakeups_per_frame", 0, "ratio");
  report.Set("net.bytes_per_tuple", 0, "B");
  report.Set("net.frame_errors", 0, "count");

  Histogram late;
  double busy_ns = 0, active_s = 0;
  for (const RoundStats& r : untraced) {
    late.Merge(r.late_us);
    busy_ns += static_cast<double>(r.query_busy_ns);
    active_s += r.active_s;
  }
  report.Set("loadgen.late_p99_us", late.Percentile(0.99), "us");
  report.Set("loadgen.busy_frac", active_s > 0 ? busy_ns * 1e-9 / active_s : 0,
             "ratio");
  report_speed(untraced);
  return report;
}

}  // namespace perfbench
