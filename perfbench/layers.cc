// The per-layer ledger: each library layer timed by calling its public
// functions from here, on the running workload's own tape and frames.

#include <algorithm>
#include <memory>

#include "common.h"
#include "core/nips_ci_ensemble.h"
#include "hash/hash_family.h"
#include "net/batch_decode.h"
#include "net/wire.h"
#include "util/envelope.h"

namespace perfbench {

using namespace implistat;

namespace {

constexpr size_t kMaxLedgerTuples = 200000;

// Timed loops fold their results in here so the optimizer keeps them.
volatile uint64_t g_sink = 0;
constexpr int kReps = 5;

/// Median over kReps of `pass()`, which returns nanoseconds for one pass.
template <typename Pass>
double MedianNs(Pass pass) {
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) ns.push_back(pass());
  return Median(ns);
}

}  // namespace

void MeasureLayers(const LedgerInput& input, Report* report) {
  const Schema& schema = *input.schema;
  const size_t width = input.width;
  const size_t n = std::min(input.tape->size() / width, kMaxLedgerTuples);
  auto tuple = [&](size_t i) {
    return TupleRef(input.tape->data() + i * width, width);
  };
  const ImplicationQuerySpec& first = input.templates.front();

  // Packers for every template (a and b side), built once.
  std::vector<ItemsetPacker> packers;
  for (const ImplicationQuerySpec& spec : input.templates) {
    for (const auto* names : {&spec.a_attributes, &spec.b_attributes}) {
      auto attrs = AttributeSet::FromNames(schema, *names);
      if (!attrs.ok()) return report->Fail("ledger: bad template attributes");
      packers.emplace_back(schema, *attrs);
    }
  }

  // stream: ItemsetPacker::Pack, per call.
  uint64_t sink = 0;
  const double pack_ns = MedianNs([&] {
    const uint64_t start = NowNs();
    for (const ItemsetPacker& packer : packers) {
      for (size_t i = 0; i < n; ++i) sink += packer.Pack(tuple(i));
    }
    return static_cast<double>(NowNs() - start) /
           static_cast<double>(n * packers.size());
  });
  report->Set("stream.pack_ns", pack_ns, "ns");

  // The first template's itemset pairs feed hash and observe.
  std::vector<ItemsetPair> pairs;
  pairs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (first.where != nullptr && !first.where->Matches(tuple(i))) continue;
    pairs.push_back({packers[0].Pack(tuple(i)), packers[1].Pack(tuple(i))});
  }

  // hash: the estimator's routing hash (kMix), per key.
  const std::unique_ptr<Hasher64> hasher =
      MakeHasher(first.estimator.nips.hash_kind, first.estimator.nips.seed);
  report->Set("hash.ns_per_key", MedianNs([&] {
                const uint64_t start = NowNs();
                for (const ItemsetPair& p : pairs) sink ^= hasher->Hash(p.a);
                return static_cast<double>(NowNs() - start) /
                       static_cast<double>(pairs.size());
              }),
              "ns");

  // query: WHERE evaluation, per tuple per predicate.
  std::vector<const Predicate*> wheres;
  for (const ImplicationQuerySpec& spec : input.templates) {
    if (spec.where != nullptr) wheres.push_back(spec.where.get());
  }
  double where_ns = 0;
  if (!wheres.empty()) {
    where_ns = MedianNs([&] {
      const uint64_t start = NowNs();
      for (const Predicate* where : wheres) {
        for (size_t i = 0; i < n; ++i) sink += where->Matches(tuple(i));
      }
      return static_cast<double>(NowNs() - start) /
             static_cast<double>(n * wheres.size());
    });
  }
  report->Set("query.where_ns", where_ns, "ns");

  // core: a bare NipsCi, and the estimator a QueryEngine builds for the
  // same template (wrapped however the engine wraps it), each fed the
  // same pairs. The engine is throwaway: it only supplies its estimator,
  // which is fed directly rather than through the engine's ingest loop.
  const NipsCiOptions& nips_options = first.estimator.nips;
  ImplicationQuerySpec engine_spec = first;
  engine_spec.label.clear();
  std::vector<double> bare_ns, wrapped_ns;
  std::unique_ptr<NipsCi> filled;
  for (int rep = 0; rep < kReps; ++rep) {
    auto bare = std::make_unique<NipsCi>(first.conditions, nips_options);
    uint64_t start = NowNs();
    for (const ItemsetPair& p : pairs) bare->Observe(p.a, p.b);
    bare_ns.push_back(static_cast<double>(NowNs() - start) /
                      static_cast<double>(pairs.size()));
    QueryEngine engine(schema);
    auto id = engine.Register(engine_spec);
    auto owned = id.ok() ? engine.Estimator(*id)
                         : StatusOr<const ImplicationEstimator*>(id.status());
    if (!owned.ok()) return report->Fail("ledger: engine estimator");
    // The engine owns a mutable estimator; Estimator() only hands out a
    // read-only view of it.
    auto* wrapped = const_cast<ImplicationEstimator*>(*owned);
    start = NowNs();
    for (const ItemsetPair& p : pairs) wrapped->Observe(p.a, p.b);
    wrapped_ns.push_back(static_cast<double>(NowNs() - start) /
                         static_cast<double>(pairs.size()));
    filled = std::move(bare);
  }
  const double observe_ns = Median(bare_ns);
  report->Set("core.observe_ns", observe_ns, "ns");
  report->Set("obs.wrap_ns", Median(wrapped_ns) - observe_ns, "ns");

  auto readout_us = [&](auto call, int calls) {
    return MedianNs([&] {
             const uint64_t start = NowNs();
             for (int i = 0; i < calls; ++i) call();
             return static_cast<double>(NowNs() - start) / calls;
           }) *
           1e-3;
  };
  double fsink = 0;
  report->Set("core.answer_us",
              readout_us([&] { fsink += filled->EstimateImplicationCount(); },
                         200),
              "us");
  report->Set("core.stderr_us",
              readout_us([&] { fsink += filled->EstimateStdError(); }, 10),
              "us");

  // util: envelope seal (CRC32C) and net: OBSERVE_BATCH decode, over the
  // workload's own request payloads.
  uint64_t payload_bytes = 0;
  for (const std::string& payload : *input.payloads) {
    payload_bytes += payload.size();
  }
  report->Set("util.seal_ns_per_kb", MedianNs([&] {
                const uint64_t start = NowNs();
                for (const std::string& payload : *input.payloads) {
                  sink += WrapEnvelope(net::kWireEnvelope,
                                       static_cast<uint8_t>(
                                           net::MsgType::kObserveBatch),
                                       payload)
                              .size();
                }
                return static_cast<double>(NowNs() - start) /
                       (static_cast<double>(payload_bytes) / 1024.0);
              }),
              "ns/KB");
  const std::vector<ValueDictionary> no_dictionaries;
  std::vector<ValueId> flat;
  bool decoded_ok = true;
  report->Set("net.decode_ns_per_tuple", MedianNs([&] {
                uint64_t tuples = 0;
                const uint64_t start = NowNs();
                for (const std::string& payload : *input.payloads) {
                  flat.clear();
                  auto count = net::DecodeObserveBatchInto(
                      payload, schema, no_dictionaries, &flat);
                  if (!count.ok()) decoded_ok = false;
                  tuples += count.ok() ? *count : 0;
                }
                return static_cast<double>(NowNs() - start) /
                       static_cast<double>(std::max<uint64_t>(tuples, 1));
              }),
              "ns");
  if (!decoded_ok) report->Fail("ledger: a pre-encoded batch failed to decode");

  g_sink = sink + static_cast<uint64_t>(fsink);
}

}  // namespace perfbench
