// narrow_chatty: one server (one reactor) hosting a single NIPS/CI query,
// the loyal/violator A -> B query over 200k itemsets. Ingest is two
// pipelined connections driven by one generator thread (batch 64,
// window 8 each, closed loop); QUERY goes open-loop at 1000/s, each
// answered with the jackknife std-error.
//
// The engine does almost no work per frame, so frame seal and CRC,
// batch decode, reactor wakeups, the writer handoff, response encoding
// and answer readout dominate, with reads running beside writes. Two
// connections interleave at the server, so every round rebuilds the
// arrival order from the epochs in the OBSERVE responses, replays it
// into a twin, and requires the twin's serialized state to match the
// served engine's byte for byte.

#include <algorithm>
#include <numeric>

#include "common.h"
#include "served.h"
#include "util/random.h"

namespace perfbench {

using namespace implistat;

namespace {

constexpr size_t kBatch = 64;
constexpr size_t kFrames = 16384;  // 1,048,576 tuples per round
constexpr size_t kWidth = 2;
constexpr double kQueryRate = 1000;
constexpr uint64_t kItemsets = 200000;

Schema NarrowSchema() {
  return Schema({{"A", kItemsets}, {"B", 1000}});
}

ImplicationQuerySpec NarrowSpec() {
  ImplicationQuerySpec spec;
  spec.a_attributes = {"A"};
  spec.b_attributes = {"B"};
  spec.conditions.max_multiplicity = 2;
  spec.conditions.min_support = 5;
  spec.conditions.min_top_confidence = 0.8;
  spec.conditions.confidence_c = 1;
  spec.conditions.strict_multiplicity = false;
  spec.estimator.kind = EstimatorKind::kNipsCi;
  spec.label = "narrow";
  return spec;
}

}  // namespace

Report RunNarrowChatty(const Args& args) {
  const uint64_t n = kFrames * kBatch;
  const Schema schema = NarrowSchema();
  // Half the A values are loyal to one B, half scatter over all of B.
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<ValueId> tape;
  tape.reserve(n * kWidth);
  for (uint64_t i = 0; i < n; ++i) {
    const ValueId a = static_cast<ValueId>(rng.Uniform(kItemsets));
    const bool loyal = (a % 2) == 0;
    tape.push_back(a);
    tape.push_back(static_cast<ValueId>(loyal ? 7 : rng.Uniform(1000)));
  }
  const std::vector<std::string> payloads = EncodePayloads(tape, kWidth, kBatch);
  const std::vector<std::string> frames = EncodeFrames(payloads);

  ServedWorkload workload;
  workload.config.schema = &schema;
  workload.config.configure = [](QueryEngine* engine) -> Status {
    return engine->Register(NarrowSpec()).status();
  };
  workload.config.frames = &frames;
  workload.config.batch = kBatch;
  workload.config.connections = 2;
  workload.config.query_rate = kQueryRate;
  const std::vector<std::string> query_frames = EncodeQueryFrames({{0}});
  workload.config.query_frames = &query_frames;

  workload.verify_round = [&](const ServedRound& round, Report* report) {
    // Epochs are distinct multiples of the batch size, so sorting the
    // frames by the epoch their response reported gives the server's
    // arrival order.
    std::vector<size_t> order(round.arrivals.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return round.arrivals[a] < round.arrivals[b];
    });
    QueryEngine twin(schema);
    if (!twin.Register(NarrowSpec()).ok()) {
      return report->Fail("twin registration failed");
    }
    for (size_t i = 0; i < order.size(); ++i) {
      if (round.arrivals[order[i]] != (i + 1) * kBatch) {
        return report->Fail("epoch gap in the arrival order");
      }
      const size_t first = order[i] * kBatch * kWidth;
      for (size_t t = 0; t < kBatch; ++t) {
        twin.ObserveTuple(TupleRef(tape.data() + first + t * kWidth, kWidth));
      }
    }
    auto served_state = round.engine->SerializeState();
    auto twin_state = twin.SerializeState();
    if (!served_state.ok() || !twin_state.ok() ||
        *served_state != *twin_state) {
      return report->Fail(
          "served state differs from the arrival-order twin");
    }
    auto answer = twin.AnswerEx(0);
    const net::QueryResponse& served = round.final_answers;
    if (!answer.ok() || served.results.size() != 1 ||
        !SameBits(served.results[0].estimate, answer->estimate) ||
        !SameBits(served.results[0].std_error, answer->std_error)) {
      return report->Fail("served answer differs from the twin");
    }
  };
  workload.score = [&](const ServedRound& round, Report* report) {
    report->Set("answer_rel_err",
                MedianRelErr({round.final_answers.results[0].estimate},
                             ExactAnswers(schema, {NarrowSpec()}, tape,
                                          kWidth)),
                "ratio");
  };

  workload.ledger.schema = &schema;
  workload.ledger.tape = &tape;
  workload.ledger.width = kWidth;
  workload.ledger.templates = {NarrowSpec()};
  workload.ledger.payloads = &payloads;
  return RunServedWorkload(workload, args);
}

}  // namespace perfbench
