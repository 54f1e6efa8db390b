// tenants_wide: one server (one reactor) hosting 256 tenant queries that
// collapse onto 16 NIPS/CI templates (m=64) over NetflowGenerator's
// Source/Destination/Service/Hour schema, two of them with a WHERE
// clause, with 4 CQL triggers armed. Ingest is one pipelined connection
// (batch 4096, window 8, closed loop); QUERY goes open-loop at 200/s,
// one tenant per request, rotating through all tenants.
//
// The per-tuple engine work (query/core/hash/cql) dominates; per-frame
// net cost is negligible. One ingest connection makes the arrival order
// the tape order, so every round must answer byte-identically to an
// in-process twin that replays the tape, and the answers are scored
// against exact counts over the same tape.

#include <cstdio>
#include <memory>

#include "common.h"
#include "datagen/netflow_gen.h"
#include "served.h"

namespace perfbench {

using namespace implistat;

namespace {

constexpr size_t kBatch = 4096;
constexpr size_t kFrames = 256;  // 1,048,576 tuples per round
constexpr size_t kWidth = 4;
constexpr int kTenants = 256;
constexpr double kQueryRate = 200;

/// The tape: Zipf-skewed netflow traffic with one DDoS episode and one
/// port-scan episode.
NetflowGenParams TapeParams(uint64_t seed, uint64_t n) {
  NetflowGenParams params;
  params.seed = seed;
  params.tuples_per_hour = n / 24 + 1;
  Episode ddos;
  ddos.kind = EpisodeKind::kDdos;
  ddos.start_tuple = n / 4;
  ddos.length = n / 8;
  ddos.intensity = 0.3;
  ddos.focus = 7;
  Episode scan;
  scan.kind = EpisodeKind::kPortScan;
  scan.start_tuple = 5 * n / 8;
  scan.length = n / 16;
  scan.intensity = 0.3;
  scan.focus = 11;
  params.episodes = {ddos, scan};
  return params;
}

/// 16 templates: four (A, B) shapes at four condition settings, all
/// NIPS/CI with m=64. Templates 5 and 10 carry a WHERE clause.
std::vector<ImplicationQuerySpec> Templates() {
  struct Shape {
    std::vector<std::string> a, b;
  };
  const std::vector<Shape> shapes = {
      {{"Source"}, {"Destination"}},
      {{"Destination"}, {"Source"}},
      {{"Source", "Service"}, {"Destination"}},
      {{"Service"}, {"Destination"}},
  };
  struct Knobs {
    uint32_t k;
    double gamma;
    uint32_t c;
  };
  const std::vector<Knobs> knobs = {
      {1, 1.0, 1}, {2, 0.9, 1}, {1, 0.8, 2}, {4, 0.95, 2}};
  std::vector<ImplicationQuerySpec> templates;
  for (const Shape& shape : shapes) {
    for (const Knobs& knob : knobs) {
      ImplicationQuerySpec spec;
      spec.a_attributes = shape.a;
      spec.b_attributes = shape.b;
      spec.conditions.max_multiplicity = knob.k;
      spec.conditions.min_support = 2;
      spec.conditions.min_top_confidence = knob.gamma;
      spec.conditions.confidence_c = knob.c;
      spec.conditions.strict_multiplicity = false;
      spec.estimator.kind = EstimatorKind::kNipsCi;
      spec.estimator.nips.num_bitmaps = 64;
      spec.estimator.nips.seed = 17;
      templates.push_back(std::move(spec));
    }
  }
  templates[5].where = std::make_shared<InSetPredicate>(
      NetflowGenerator::kService, std::vector<ValueId>{0, 1, 2, 3});
  templates[10].where =
      std::make_shared<RangePredicate>(NetflowGenerator::kHour, 0, 11);
  return templates;
}

ImplicationQuerySpec TenantSpec(const std::vector<ImplicationQuerySpec>& templates,
                                int tenant) {
  ImplicationQuerySpec spec = templates[static_cast<size_t>(tenant) %
                                        templates.size()];
  char label[16];
  std::snprintf(label, sizeof(label), "t%d", tenant);
  spec.label = label;
  return spec;
}

const char* const kTriggers[] = {
    "CREATE TRIGGER ddos_t1 ON t1 WHEN DELTA(t1) > 2 * MOVING_AVG(t1, 8) "
    "EVERY 65536 TUPLES",
    "CREATE TRIGGER scan_t0 ON t0 WHEN t0 > 5000 EVERY 32768 TUPLES",
    "CREATE TRIGGER where_t5 ON t5 WHEN VALUE >= 10 EVERY 131072 TUPLES",
    "CREATE TRIGGER svc_t3 ON t3 WHEN DELTA(t3) > 0 EVERY 65536 TUPLES",
};

}  // namespace

Report RunTenantsWide(const Args& args) {
  const uint64_t n = kFrames * kBatch;
  NetflowGenerator generator(TapeParams(args.seed, n));
  const Schema schema = generator.schema();
  std::vector<ValueId> tape;
  tape.reserve(n * kWidth);
  while (tape.size() < n * kWidth) {
    auto row = generator.Next();
    tape.insert(tape.end(), row->begin(), row->end());
  }
  const std::vector<ImplicationQuerySpec> templates = Templates();
  const std::vector<std::string> payloads = EncodePayloads(tape, kWidth, kBatch);
  const std::vector<std::string> frames = EncodeFrames(payloads);

  ServedWorkload workload;
  workload.config.schema = &schema;
  workload.config.configure = [&](QueryEngine* engine) -> Status {
    for (int t = 0; t < kTenants; ++t) {
      auto id = engine->Register(TenantSpec(templates, t));
      if (!id.ok()) return id.status();
    }
    for (const char* statement : kTriggers) {
      auto name = engine->InstallTrigger(statement);
      if (!name.ok()) return name.status();
    }
    return Status::OK();
  };
  workload.config.frames = &frames;
  workload.config.batch = kBatch;
  workload.config.connections = 1;
  workload.config.query_rate = kQueryRate;
  std::vector<std::vector<uint32_t>> rotation;
  for (uint32_t t = 0; t < kTenants; ++t) rotation.push_back({t});
  const std::vector<std::string> query_frames = EncodeQueryFrames(rotation);
  workload.config.query_frames = &query_frames;

  // The twin: the same 256 registrations replaying the tape in order.
  // One connection makes the served arrival order the tape order, so
  // every round must end on these answers.
  std::vector<QueryAnswer> expected;
  {
    QueryEngine twin(schema);
    for (int t = 0; t < kTenants; ++t) {
      if (!twin.Register(TenantSpec(templates, t)).ok()) {
        Report report;
        report.Fail("twin registration failed");
        return report;
      }
    }
    for (size_t i = 0; i < tape.size(); i += kWidth) {
      twin.ObserveTuple(TupleRef(tape.data() + i, kWidth));
    }
    for (int t = 0; t < kTenants; ++t) expected.push_back(*twin.AnswerEx(t));
  }

  workload.verify_round = [&](const ServedRound& round, Report* report) {
    for (size_t g = 0; g < round.arrivals.size(); ++g) {
      if (round.arrivals[g] != (g + 1) * kBatch) {
        return report->Fail("frame acked out of tape order");
      }
    }
    const net::QueryResponse& served = round.final_answers;
    if (served.tuples_seen != n || served.results.size() != kTenants) {
      return report->Fail("final QUERY saw the wrong stream length");
    }
    for (int t = 0; t < kTenants; ++t) {
      const net::QueryResult& got = served.results[static_cast<size_t>(t)];
      const QueryAnswer& want = expected[static_cast<size_t>(t)];
      if (got.id != static_cast<uint32_t>(t) ||
          !SameBits(got.estimate, want.estimate) ||
          !SameBits(got.std_error, want.std_error) ||
          got.derived != want.derived) {
        return report->Fail("tenant " + std::to_string(t) +
                            " answer differs from the replay twin");
      }
    }
    if (round.live_synopses != static_cast<int>(templates.size())) {
      return report->Fail("tenants did not collapse onto 16 synopses");
    }
  };
  workload.score = [&](const ServedRound&, Report* report) {
    std::vector<double> estimates;
    for (size_t i = 0; i < templates.size(); ++i) {
      estimates.push_back(expected[i].estimate);
    }
    report->Set("answer_rel_err",
                MedianRelErr(estimates,
                             ExactAnswers(schema, templates, tape, kWidth)),
                "ratio");
  };

  workload.ledger.schema = &schema;
  workload.ledger.tape = &tape;
  workload.ledger.width = kWidth;
  workload.ledger.templates = templates;
  workload.ledger.payloads = &payloads;
  return RunServedWorkload(workload, args);
}

}  // namespace perfbench
