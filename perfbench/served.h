// One round of a served workload: build an engine, start a net::Server
// over it, drive pre-encoded OBSERVE_BATCH frames closed-loop over one or
// more pipelined connections (window 8 each) from the calling thread, and
// send QUERY open-loop from one more thread. Thread budget per round: the
// server's writer and its one reactor, the ingest thread, the query
// thread.

#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/messages.h"
#include "query/engine.h"

namespace perfbench {

struct ServedConfig {
  const implistat::Schema* schema = nullptr;
  /// Registers queries and installs triggers on a fresh engine (timed as
  /// set-up).
  std::function<implistat::Status(implistat::QueryEngine*)> configure;
  /// Pre-encoded OBSERVE_BATCH request frames; frame g carries tuples
  /// [g * batch, (g + 1) * batch) of the tape.
  const std::vector<std::string>* frames = nullptr;
  size_t batch = 0;
  int connections = 1;
  double query_rate = 100;
  /// Pre-encoded QUERY request frames; the k-th QUERY of a run sends
  /// query_frames[k % size].
  const std::vector<std::string>* query_frames = nullptr;
  /// Traced round: sample every span and poll the tracer's rings.
  SpanCollector* collector = nullptr;
};

struct ServedRound {
  std::string error;  // empty on success
  double setup_s = 0;
  double ingest_s = 0;
  /// CPU time of the server's threads (writer, reactor) over the timed
  /// region: process CPU minus the ingest and QUERY generator threads.
  double server_cpu_s = 0;
  uint64_t tuples = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// QUERY latency from each request's due time, how late the generator
  /// sent it, and the generator's busy time (send to response).
  std::vector<double> query_us;
  std::vector<double> late_us;
  uint64_t query_busy_ns = 0;
  /// Bytes the QUERY generator's connection sent and received.
  uint64_t query_bytes = 0;
  /// Submit-to-ack time of each OBSERVE_BATCH frame, ms.
  std::vector<double> frame_ms;
  /// Server tuples_seen reported in frame g's response.
  std::vector<uint64_t> arrivals;
  /// Answers to a QUERY of every query after ingest completed.
  implistat::net::QueryResponse final_answers;
  /// Synopsis memory and live synopses once the server stopped.
  uint64_t synopsis_bytes = 0;
  int live_synopses = 0;
  /// The engine after the server stopped (for state checks and the
  /// per-layer readouts); only the last round keeps it.
  std::unique_ptr<implistat::QueryEngine> engine;
};

/// Runs one round; `query_counter` carries the rotation through query
/// ids across rounds.
ServedRound RunServedRound(const ServedConfig& config,
                           uint64_t* query_counter);

/// Pre-encodes `tape` into OBSERVE_BATCH id-encoded request payloads of
/// `batch` tuples each (the tail short of a full batch is dropped).
std::vector<std::string> EncodePayloads(const std::vector<ValueId>& tape,
                                        size_t width, size_t batch);

/// Wraps each payload into a request frame.
std::vector<std::string> EncodeFrames(const std::vector<std::string>& payloads);

/// One QUERY request frame per id list.
std::vector<std::string> EncodeQueryFrames(
    const std::vector<std::vector<uint32_t>>& ids);

/// A served workload: its round configuration, the check each round must
/// pass, and the accuracy score of the traced run.
struct ServedWorkload {
  ServedConfig config;
  /// Checks one finished round (its engine still alive); runs between
  /// rounds, outside every timed region.
  std::function<void(const ServedRound&, Report*)> verify_round;
  /// Sets answer_rel_err from a verified round (traced run only).
  std::function<void(const ServedRound&, Report*)> score;
  LedgerInput ledger;
};

/// Runs the workload's rounds for args.seconds and reports the
/// end-to-end metrics, or, with args.trace, an untraced half and a traced
/// half and the per-layer metrics.
Report RunServedWorkload(ServedWorkload& workload, const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
