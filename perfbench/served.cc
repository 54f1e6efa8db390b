#include "served.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <thread>

#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace perfbench {

using namespace implistat;

namespace {

constexpr uint64_t kTracePollNs = 10'000'000;  // drain the span rings
constexpr uint64_t kWaitSliceNs = 1'000'000;
constexpr uint64_t kDrainTimeoutNs = 5'000'000'000;  // answers still owed
constexpr size_t kWindow = 8;  // in-flight OBSERVE_BATCH per connection

/// The open-loop QUERY generator. Each request goes out at its due time
/// whether or not earlier ones were answered (several may be in flight),
/// and each response is stamped when its bytes arrive. The connection is
/// only used for raw sends and reads from here on, so the generator never
/// blocks past the next due time. Returns the number of failed requests;
/// `query_bytes` gets the bytes sent and received on the connection.
uint64_t GenerateQueries(const ServedConfig& config, net::Client& querier,
                         uint64_t first_query, OpenLoop* loop,
                         const std::atomic<bool>& ingest_done,
                         uint64_t* queries_sent, uint64_t* query_bytes) {
  const std::vector<std::string>& frames = *config.query_frames;
  net::FrameDecoder decoder(64u << 20);
  std::deque<uint64_t> sent_ns;  // in-flight requests, oldest first
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t failures = 0;
  uint64_t last_poll = NowNs();
  uint64_t drain_deadline = 0;
  char buf[1 << 16];
  for (;;) {
    const bool stopping = ingest_done.load(std::memory_order_acquire);
    if (stopping && answered == sent) break;
    uint64_t now = NowNs();
    if (stopping && drain_deadline == 0) drain_deadline = now + kDrainTimeoutNs;
    if (stopping && now > drain_deadline) {
      failures += sent - answered;
      break;
    }
    if (config.collector != nullptr && now - last_poll > kTracePollNs) {
      config.collector->Poll();
      last_poll = now = NowNs();
    }
    const uint64_t due = loop->due_ns(sent);
    if (!stopping && now >= due) {
      const std::string& frame = frames[(first_query + sent) % frames.size()];
      Status status = querier.SendRaw(frame);
      loop->busy_ns += NowNs() - now;
      *query_bytes += frame.size();
      if (!status.ok()) {
        ++failures;
        break;
      }
      sent_ns.push_back(now);
      ++sent;
      continue;
    }
    const uint64_t wake = stopping ? now + kWaitSliceNs
                                   : std::min(due, now + kWaitSliceNs);
    if (answered == sent) {
      SleepUntil(wake);
      continue;
    }
    struct pollfd pfd = {querier.fd(), POLLIN, 0};
    const uint64_t wait_ns = wake > now ? wake - now : 0;
    struct timespec timeout = {static_cast<time_t>(wait_ns / 1'000'000'000),
                               static_cast<long>(wait_ns % 1'000'000'000)};
    if (ppoll(&pfd, 1, &timeout, nullptr) <= 0) continue;
    const ssize_t n = recv(querier.fd(), buf, sizeof(buf), MSG_DONTWAIT);
    const uint64_t arrived = NowNs();
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      failures += sent - answered;
      break;
    }
    *query_bytes += static_cast<uint64_t>(n);
    if (!decoder.Append(std::string_view(buf, static_cast<size_t>(n))).ok()) {
      failures += sent - answered;
      break;
    }
    bool broken = false;
    for (;;) {
      auto frame = decoder.NextView();
      if (!frame.ok()) {
        broken = true;
        break;
      }
      if (!frame->has_value()) break;
      if (sent_ns.empty()) {  // a response nobody asked for
        broken = true;
        break;
      }
      auto payload = net::DecodeResponsePayload((*frame)->payload);
      bool ok = payload.ok() && payload->first.ok() &&
                (*frame)->type() == net::MsgType::kQuery;
      if (ok) {
        auto response =
            net::DecodeQueryResponse(payload->second, (*frame)->version);
        ok = response.ok() && !response->results.empty();
      }
      if (!ok) ++failures;
      loop->Record(answered, sent_ns.front(), arrived);
      sent_ns.pop_front();
      ++answered;
    }
    loop->busy_ns += NowNs() - arrived;
    if (broken) {
      failures += sent - answered;
      break;
    }
  }
  *queries_sent = sent;
  return failures;
}

}  // namespace

std::vector<std::string> EncodePayloads(const std::vector<ValueId>& tape,
                                        size_t width, size_t batch) {
  std::vector<std::string> payloads;
  const size_t cells = batch * width;
  for (size_t at = 0; at + cells <= tape.size(); at += cells) {
    net::ObserveBatchRequest request;
    request.encoding = net::ObserveEncoding::kIds;
    request.width = static_cast<uint32_t>(width);
    request.ids.assign(tape.begin() + static_cast<ptrdiff_t>(at),
                       tape.begin() + static_cast<ptrdiff_t>(at + cells));
    payloads.push_back(net::EncodeObserveBatchRequest(request));
  }
  return payloads;
}

std::vector<std::string> EncodeQueryFrames(
    const std::vector<std::vector<uint32_t>>& ids) {
  std::vector<std::string> frames;
  for (const std::vector<uint32_t>& list : ids) {
    frames.push_back(net::EncodeRequestFrame(net::MsgType::kQuery,
                                             net::EncodeQueryRequest(list)));
  }
  return frames;
}

std::vector<std::string> EncodeFrames(
    const std::vector<std::string>& payloads) {
  std::vector<std::string> frames;
  frames.reserve(payloads.size());
  for (const std::string& payload : payloads) {
    frames.push_back(
        net::EncodeRequestFrame(net::MsgType::kObserveBatch, payload));
  }
  return frames;
}

ServedRound RunServedRound(const ServedConfig& config,
                           uint64_t* query_counter) {
  ServedRound round;
  const std::vector<std::string>& frames = *config.frames;
  const size_t n_frames = frames.size();

  // --- set-up: engine, queries, triggers, server, connections ---
  const uint64_t setup_start = NowNs();
  round.engine = std::make_unique<QueryEngine>(*config.schema);
  if (Status s = config.configure(round.engine.get()); !s.ok()) {
    round.error = "configure: " + s.ToString();
    return round;
  }
  net::ServerOptions options;
  options.reactors = 1;
  auto server = std::make_unique<net::Server>(round.engine.get(), options);
  if (Status s = server->Start(); !s.ok()) {
    round.error = "server start: " + s.ToString();
    return round;
  }
  Status run_status;
  std::thread writer([&] { run_status = server->Run(); });
  auto stop_server = [&] {
    server->Shutdown();
    writer.join();
    server.reset();
  };

  net::ClientOptions ingest_options;
  ingest_options.max_in_flight = kWindow;
  std::vector<net::Client> ingest;
  for (int c = 0; c < config.connections; ++c) {
    auto client =
        net::Client::Connect("127.0.0.1", server->port(), ingest_options);
    if (!client.ok()) {
      round.error = "connect: " + client.status().ToString();
      stop_server();
      return round;
    }
    ingest.push_back(std::move(*client));
  }
  auto querier = net::Client::Connect("127.0.0.1", server->port());
  if (!querier.ok()) {
    round.error = "connect: " + querier.status().ToString();
    stop_server();
    return round;
  }
  round.setup_s = SecondsSince(setup_start);

  // --- timed region: closed-loop ingest here, open-loop QUERY there ---
  const uint64_t ingest_start = NowNs();
  const double process_cpu_start = ProcessCpuS();
  const double ingest_cpu_start = ThreadCpuS();
  double query_cpu_s = 0;  // written by the query thread before join
  std::atomic<bool> ingest_done{false};
  uint64_t queries_sent = 0;
  uint64_t query_failures = 0;  // written by the query thread before join
  OpenLoop loop(config.query_rate, ingest_start);
  const uint64_t first_query = *query_counter;
  std::thread query_thread([&] {
    const double cpu_start = ThreadCpuS();
    query_failures = GenerateQueries(config, *querier, first_query, &loop,
                                     ingest_done, &queries_sent,
                                     &round.query_bytes);
    query_cpu_s = ThreadCpuS() - cpu_start;
  });

  round.arrivals.assign(n_frames, 0);
  round.frame_ms.assign(n_frames, 0);
  std::vector<uint64_t> submit_ns(n_frames, 0);
  struct Pipe {
    size_t next;                 // next frame this connection sends
    std::deque<size_t> pending;  // frames awaiting their ack, in order
  };
  std::vector<Pipe> pipes;
  for (int c = 0; c < config.connections; ++c) {
    pipes.push_back({static_cast<size_t>(c), {}});
  }
  const size_t stride = static_cast<size_t>(config.connections);
  size_t acked = 0;
  while (acked < n_frames && round.error.empty()) {
    for (size_t c = 0; c < pipes.size() && round.error.empty(); ++c) {
      Pipe& pipe = pipes[c];
      while (pipe.next < n_frames && pipe.pending.size() < kWindow) {
        submit_ns[pipe.next] = NowNs();
        ++round.attempted;
        Status sent = ingest[c].Submit(net::MsgType::kObserveBatch,
                                       frames[pipe.next], /*pre_encoded=*/true);
        if (!sent.ok()) {
          ++round.failed;
          round.error = "observe submit: " + sent.ToString();
          break;
        }
        pipe.pending.push_back(pipe.next);
        pipe.next += stride;
      }
      if (pipe.pending.empty() || !round.error.empty()) continue;
      auto body = ingest[c].Await();
      const size_t g = pipe.pending.front();
      pipe.pending.pop_front();
      auto seen = body.ok() ? net::DecodeObserveBatchResponse(*body)
                            : StatusOr<uint64_t>(body.status());
      if (!seen.ok()) {
        ++round.failed;
        round.error = "observe: " + seen.status().ToString();
        break;
      }
      round.arrivals[g] = *seen;
      round.frame_ms[g] = static_cast<double>(NowNs() - submit_ns[g]) * 1e-6;
      ++acked;
    }
  }
  round.ingest_s = SecondsSince(ingest_start);
  ingest_done.store(true, std::memory_order_release);
  query_thread.join();
  round.server_cpu_s = ProcessCpuS() - process_cpu_start -
                       (ThreadCpuS() - ingest_cpu_start) - query_cpu_s;
  *query_counter += queries_sent;
  round.attempted += queries_sent;
  round.failed += query_failures;
  round.query_us = std::move(loop.latency_us);
  round.late_us = std::move(loop.late_us);
  round.query_busy_ns = loop.busy_ns;
  round.tuples = acked * config.batch;
  if (query_failures > 0 && round.error.empty()) {
    round.error = std::to_string(query_failures) + " QUERY requests failed";
  }

  // Every query's answer once ingest is complete, for the twin check.
  if (round.error.empty()) {
    ++round.attempted;
    auto answers = ingest[0].Query();
    if (answers.ok()) {
      round.final_answers = std::move(*answers);
    } else {
      ++round.failed;
      round.error = "final query: " + answers.status().ToString();
    }
  }
  if (config.collector != nullptr) config.collector->Poll();
  stop_server();
  if (!run_status.ok() && round.error.empty()) {
    round.error = "server: " + run_status.ToString();
  }
  round.synopsis_bytes = round.engine->TotalSynopsisMemoryBytes();
  round.live_synopses = round.engine->num_synopses();
  return round;
}

namespace {

/// What a run keeps from its rounds: sums and fixed-size histograms, plus
/// the last round (and its engine) for the per-layer readouts.
struct RoundTotals {
  size_t rounds = 0;
  std::vector<double> setup_s;
  double tuples = 0;
  double ingest_s = 0;
  double server_cpu_s = 0;
  double query_busy_ns = 0;
  double query_bytes = 0;
  Histogram query_us, late_us, frame_ms;
  /// Peak RSS once the first round ended. Later rounds repeat the same
  /// set-up; each round's fresh server threads leave their tracer span
  /// rings behind (the tracer keeps every thread's ring for the life of
  /// the process), so the peak after N rounds would grow with N.
  double first_round_peak_rss_mb = 0;
  ServedRound last;
};

/// Runs rounds until `seconds` have passed and `min_samples` QUERY
/// latencies are in (capped at three times `seconds`), verifying each
/// round as it ends. Stops at the first failed round.
RoundTotals RunRounds(ServedWorkload& workload, const ServedConfig& config,
                      double seconds, uint64_t min_samples, Report* report) {
  RoundTotals totals;
  uint64_t query_counter = 0;
  const uint64_t start = NowNs();
  while (totals.rounds == 0 || SecondsSince(start) < seconds ||
         (totals.query_us.count() < min_samples &&
          SecondsSince(start) < 3 * seconds)) {
    ServedRound round = RunServedRound(config, &query_counter);
    ++totals.rounds;
    report->attempted += round.attempted;
    report->failed += round.failed;
    if (!round.error.empty()) {
      report->Fail("round " + std::to_string(totals.rounds) + ": " +
                   round.error);
      break;
    }
    if (totals.rounds == 1) totals.first_round_peak_rss_mb = PeakRssMb();
    workload.verify_round(round, report);
    if (!report->correct) break;
    totals.setup_s.push_back(round.setup_s);
    totals.tuples += static_cast<double>(round.tuples);
    totals.ingest_s += round.ingest_s;
    totals.server_cpu_s += round.server_cpu_s;
    totals.query_busy_ns += static_cast<double>(round.query_busy_ns);
    totals.query_bytes += static_cast<double>(round.query_bytes);
    totals.query_us.Add(round.query_us);
    totals.late_us.Add(round.late_us);
    totals.frame_ms.Add(round.frame_ms);
    std::fprintf(stderr,
                 "round %zu: setup_ms=%.3f ingest_mtps=%.3f queries=%zu\n",
                 totals.rounds, round.setup_s * 1e3,
                 static_cast<double>(round.tuples) / round.ingest_s / 1e6,
                 round.query_us.size());
    totals.last = std::move(round);
  }
  return totals;
}

/// Tuples acknowledged per second of ingest, over all rounds.
double IngestMtps(const RoundTotals& totals) {
  return totals.ingest_s > 0 ? totals.tuples / totals.ingest_s / 1e6 : 0;
}

/// Speed and latency rows: the end-to-end run reports them as text, the
/// traced run as rows from its untraced half.
void ReportSpeed(const RoundTotals& totals, Report* report) {
  report->Set("ingest_mtps", IngestMtps(totals), "Mt/s");
  report->Set("cpu_ns_per_tuple", totals.server_cpu_s * 1e9 / totals.tuples,
              "ns");
  report->Set("poll_ms_p50", totals.frame_ms.Percentile(0.50), "ms");
  ReportLatencies(totals.query_us, totals.frame_ms, report);
}

void ReportLoadgen(const RoundTotals& totals, double rate, Report* report) {
  const double late_p99 = totals.late_us.Percentile(0.99);
  report->Set("loadgen.late_p99_us", late_p99, "us");
  report->Set("loadgen.busy_frac",
              totals.ingest_s > 0
                  ? totals.query_busy_ns * 1e-9 / totals.ingest_s
                  : 0,
              "ratio");
  // The generator fell behind when its p99 send delay exceeds one
  // inter-arrival interval: later requests then queue inside the
  // generator, not the server.
  if (late_p99 > 1e6 / rate) {
    std::printf("WARNING loadgen fell behind: late_p99_us=%.1f > "
                "interval_us=%.1f\n",
                late_p99, 1e6 / rate);
  }
}

}  // namespace

Report RunServedWorkload(ServedWorkload& workload, const Args& args) {
  Report report;
  const std::vector<std::string>& frames = *workload.config.frames;
  auto wire_bytes = [](const obs::RegistrySnapshot& snapshot) {
    return static_cast<double>(
        CounterSum(snapshot, "implistat_net_bytes_rx_total") +
        CounterSum(snapshot, "implistat_net_bytes_tx_total"));
  };

  if (!args.trace) {
    obs::Tracer::SetSampleEveryN(0);
    const double wire_before =
        wire_bytes(obs::MetricsRegistry::Global().Snapshot());
    RoundTotals totals = RunRounds(workload, workload.config, args.seconds,
                                   kMinQuerySamples, &report);
    if (!report.correct) return report;
    const double wire_after =
        wire_bytes(obs::MetricsRegistry::Global().Snapshot());
    std::printf("rounds=%zu frames_per_round=%zu\n", totals.rounds,
                frames.size());
    ReportSpeed(totals, &report);
    report.Set("setup_s", Median(totals.setup_s), "s");
    // The server's received plus sent bytes per OBSERVE_BATCH frame,
    // without the open-loop QUERY traffic (whose volume follows the
    // ingest time).
    report.Set("ship_kb_per_poll",
               (wire_after - wire_before - totals.query_bytes) /
                   (static_cast<double>(totals.rounds * frames.size()) *
                    1024.0),
               "KB");
    report.Set("synopsis_kb",
               static_cast<double>(totals.last.synopsis_bytes) / 1024.0, "KB");
    report.Set("peak_rss_mb", totals.first_round_peak_rss_mb, "MB");
    ReportLoadgen(totals, workload.config.query_rate, &report);
    return report;
  }

  // Traced run: an untraced half (the baseline for the tracing overhead
  // and the load generator's own health), then a traced half whose spans
  // and counters give the per-layer numbers.
  obs::Tracer::SetSampleEveryN(0);
  const RoundTotals untraced = RunRounds(
      workload, workload.config, args.seconds / 2, kMinQuerySamples, &report);
  if (!report.correct) return report;
  SpanCollector collector;
  ServedConfig traced_config = workload.config;
  traced_config.collector = &collector;
  const obs::RegistrySnapshot before = obs::MetricsRegistry::Global().Snapshot();
  obs::Tracer::SetSampleEveryN(1);
  RoundTotals traced =
      RunRounds(workload, traced_config, args.seconds / 2, 0, &report);
  obs::Tracer::SetSampleEveryN(0);
  const obs::RegistrySnapshot after = obs::MetricsRegistry::Global().Snapshot();
  if (!report.correct) return report;
  workload.score(traced.last, &report);

  MeasureLayers(workload.ledger, &report);
  const ServerLedger server =
      AnalyzeServerSpans(collector.spans(), traced.ingest_s);
  report.Set("query.apply_ns_per_tuple", server.apply_ns_per_tuple, "ns");
  report.Set("net.handle_us", server.handle_us, "us");
  report.Set("net.encode_us", server.encode_us, "us");
  report.Set("net.write_us", server.write_us, "us");
  report.Set("net.apply_query_us", server.apply_query_us, "us");
  report.Set("net.queue_wait_us_p50.observe_batch",
             server.queue_observe_p50_us, "us");
  report.Set("net.queue_wait_us_p99.observe_batch",
             server.queue_observe_p99_us, "us");
  report.Set("net.queue_wait_us_p50.query", server.queue_query_p50_us, "us");
  report.Set("net.queue_wait_us_p99.query", server.queue_query_p99_us, "us");
  report.Set("cql.eval_us", server.cql_eval_us, "us");
  report.Set("cql.evals", server.cql_evals, "count");
  report.Set("unexplained_frac", 1.0 - server.covered_frac, "ratio");

  auto delta = [&](const char* name) {
    return static_cast<double>(CounterSum(after, name) -
                               CounterSum(before, name));
  };
  const double requests = delta("implistat_net_requests_total");
  report.Set("net.wakeups_per_frame",
             requests > 0 ? delta("implistat_reactor_wakeups_total") / requests
                          : 0,
             "ratio");
  report.Set("net.bytes_per_tuple",
             traced.tuples > 0
                 ? delta("implistat_net_bytes_rx_total") / traced.tuples
                 : 0,
             "B");
  report.Set("net.frame_errors", delta("implistat_net_frame_errors_total"),
             "count");
  // No delta shipping or refold on the served path.
  for (const char* name :
       {"core.delta_serialize_us.nips_ci", "core.delta_serialize_us.sliding",
        "core.delta_apply_us.nips_ci", "core.delta_apply_us.sliding",
        "delta.wrap_us", "delta.unwrap_us"}) {
    report.Set(name, 0, "us");
  }
  report.Set("delta.rle_ratio", 0, "ratio");
  report.Set("delta.resyncs", 0, "count");
  report.Set("query.refold_ms", 0, "ms");

  // Engine readouts on the last traced round's engine (its server has
  // stopped).
  const QueryEngine& engine = *traced.last.engine;
  report.Set("core.fringe_fill", FringeFill(engine), "ratio");
  report.Set("query.live_synopses", engine.num_synopses(), "count");
  report.Set("query.answer_ex_us", AnswerExUs(engine), "us");

  // query.overhead_ratio: measured apply cost per tuple over what the
  // live synopses' own work (two packs, WHERE if any, one Observe) adds
  // up to.
  const auto value = [&](const char* name) {
    for (const Metric& metric : report.metrics) {
      if (metric.name == name) return metric.value;
    }
    return 0.0;
  };
  double per_tuple_work = 0;
  for (const ImplicationQuerySpec& spec : workload.ledger.templates) {
    per_tuple_work += 2 * value("stream.pack_ns") + value("core.observe_ns") +
                      (spec.where != nullptr ? value("query.where_ns") : 0);
  }
  report.Set("query.overhead_ratio",
             per_tuple_work > 0 ? server.apply_ns_per_tuple / per_tuple_work
                                : 0,
             "ratio");
  const double untraced_rate = IngestMtps(untraced);
  report.Set("obs.trace_overhead_frac",
             untraced_rate > 0 ? 1.0 - IngestMtps(traced) / untraced_rate : 0,
             "ratio");
  ReportLoadgen(untraced, workload.config.query_rate, &report);
  ReportSpeed(untraced, &report);
  return report;
}

}  // namespace perfbench
