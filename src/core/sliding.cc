#include "core/sliding.h"

#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/random.h"
#include "util/serde.h"

namespace implistat {

SlidingNipsCi::SlidingNipsCi(ImplicationConditions conditions,
                             SlidingOptions options)
    : conditions_(conditions),
      options_(options),
      next_seed_(options.estimator.seed) {
  IMPLISTAT_CHECK(options_.stride >= 1);
  IMPLISTAT_CHECK(options_.window >= options_.stride);
  IMPLISTAT_CHECK(options_.window % options_.stride == 0)
      << "stride must divide window";
}

void SlidingNipsCi::Observe(ItemsetKey a, ItemsetKey b) {
  if (tuples_ % options_.stride == 0) {
    // Open a new origin. Each gets its own hash seed so that the
    // estimators' errors are independent.
    NipsCiOptions opts = options_.estimator;
    opts.seed = SplitMix64(next_seed_++ + 0x51d1);
    origins_.push_back(
        Origin{tuples_, std::make_unique<NipsCi>(conditions_, opts)});
  }
  for (Origin& origin : origins_) origin.estimator->Observe(a, b);
  ++tuples_;
  // Retire origins more than one window old; the youngest origin at least
  // `window` old answers window queries, older ones are no longer needed.
  while (origins_.size() >= 2 &&
         origins_[1].start + options_.window <= tuples_) {
    origins_.erase(origins_.begin());
  }
}

double SlidingNipsCi::WindowEstimate() const {
  if (origins_.empty()) return 0.0;
  // The front origin is the youngest one that is >= window old (or the
  // stream start before a full window has elapsed).
  return origins_.front().estimator->EstimateImplicationCount();
}

double SlidingNipsCi::WindowNonImplicationEstimate() const {
  if (origins_.empty()) return 0.0;
  return origins_.front().estimator->EstimateNonImplicationCount();
}

size_t SlidingNipsCi::MemoryBytes() const {
  size_t bytes = sizeof(*this) + origins_.capacity() * sizeof(Origin) +
                 delta_epochs_.capacity() * sizeof(uint64_t);
  for (const Origin& origin : origins_) {
    bytes += origin.estimator->MemoryBytes();
  }
  return bytes;
}

StatusOr<std::string> SlidingNipsCi::SerializeState() const {
  ByteWriter out;
  conditions_.SerializeTo(&out);
  out.PutVarint64(options_.window);
  out.PutVarint64(options_.stride);
  out.PutVarint64(tuples_);
  out.PutVarint64(next_seed_);
  out.PutVarint64(origins_.size());
  for (const Origin& origin : origins_) {
    out.PutVarint64(origin.start);
    out.PutLengthPrefixed(origin.estimator->Serialize());
  }
  return WrapSnapshot(SnapshotKind::kSlidingNipsCi, out.Release());
}

Status SlidingNipsCi::RestoreState(std::string_view snapshot) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapSnapshot(snapshot, SnapshotKind::kSlidingNipsCi));
  ByteReader in(payload);
  IMPLISTAT_ASSIGN_OR_RETURN(ImplicationConditions conditions,
                             ImplicationConditions::Deserialize(&in));
  SlidingOptions options = options_;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&options.window));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&options.stride));
  // The constructor CHECK-aborts on these; a corrupt snapshot must fail
  // with a Status instead.
  if (options.stride < 1 || options.window < options.stride ||
      options.window % options.stride != 0) {
    return Status::InvalidArgument("SlidingNipsCi: bad window geometry");
  }
  uint64_t tuples, next_seed, num_origins;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&tuples));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&next_seed));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&num_origins));
  // Steady state keeps window/stride + 1 origins; allow that bound (the
  // retirement loop keeps at most one origin older than a window).
  if (num_origins > options.window / options.stride + 1 ||
      num_origins > in.remaining()) {
    return Status::InvalidArgument("SlidingNipsCi: implausible origin count");
  }
  std::vector<Origin> origins;
  uint64_t prev_start = 0;
  for (uint64_t i = 0; i < num_origins; ++i) {
    uint64_t start;
    IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&start));
    // Origins open at stride boundaries, in increasing order, never in
    // the future.
    if (start % options.stride != 0 || start > tuples ||
        (i > 0 && start <= prev_start)) {
      return Status::InvalidArgument("SlidingNipsCi: bad origin start");
    }
    prev_start = start;
    std::string_view sketch_bytes;
    IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&sketch_bytes));
    IMPLISTAT_ASSIGN_OR_RETURN(NipsCi decoded,
                               NipsCi::Deserialize(sketch_bytes));
    if (!(decoded.conditions() == conditions)) {
      return Status::InvalidArgument(
          "SlidingNipsCi: origin conditions differ from the window's");
    }
    origins.push_back(
        Origin{start, std::make_unique<NipsCi>(std::move(decoded))});
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("SlidingNipsCi: trailing bytes");
  }
  conditions_ = conditions;
  options_ = options;
  origins_ = std::move(origins);
  tuples_ = tuples;
  next_seed_ = next_seed;
  // The restored origins carry no stamp bookkeeping: any baseline noted
  // before the restore is unsound, so forget it and let the next delta
  // request resync with a full snapshot.
  delta_epochs_.clear();
  return Status::OK();
}

namespace {
constexpr uint8_t kSlidingDeltaVersion = 1;
}  // namespace

void SlidingNipsCi::RecordDeltaEpoch(uint64_t epoch) {
  for (uint64_t e : delta_epochs_) {
    if (e == epoch) return;
  }
  if (delta_epochs_.size() == kMaxDeltaEpochs) {
    delta_epochs_.erase(delta_epochs_.begin());
  }
  delta_epochs_.push_back(epoch);
}

void SlidingNipsCi::NoteSnapshotEpoch(uint64_t epoch) {
  for (Origin& origin : origins_) origin.estimator->NoteSnapshotEpoch(epoch);
  RecordDeltaEpoch(epoch);
}

StatusOr<std::string> SlidingNipsCi::SerializeDelta(uint64_t since_epoch,
                                                    uint64_t current_epoch) {
  bool known = false;
  for (uint64_t e : delta_epochs_) known = known || e == since_epoch;
  if (!known) {
    return Status::NotFound("SlidingNipsCi: no delta baseline at epoch " +
                            std::to_string(since_epoch));
  }
  ByteWriter out;
  out.PutU8(kSlidingDeltaTag);
  out.PutU8(kSlidingDeltaVersion);
  out.PutVarint64(options_.window);
  out.PutVarint64(options_.stride);
  out.PutVarint64(tuples_);
  out.PutVarint64(next_seed_);
  out.PutVarint64(origins_.size());
  for (Origin& origin : origins_) {
    out.PutVarint64(origin.start);
    StatusOr<std::string> patch =
        origin.estimator->SerializeDelta(since_epoch, current_epoch);
    if (patch.ok()) {
      out.PutU8(1);  // patch against the baseline
      out.PutLengthPrefixed(*patch);
    } else if (patch.status().code() == StatusCode::kNotFound) {
      // Origin opened after the baseline (or lost its marks to a merge):
      // ship it whole and start tracking from the new epoch.
      out.PutU8(2);  // full sketch
      out.PutLengthPrefixed(origin.estimator->Serialize());
      origin.estimator->NoteSnapshotEpoch(current_epoch);
    } else {
      return patch.status();
    }
  }
  RecordDeltaEpoch(current_epoch);
  return out.Release();
}

Status SlidingNipsCi::ApplyDelta(std::string_view fragment) {
  ByteReader in(fragment);
  uint8_t tag, version;
  IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&tag));
  if (tag != kSlidingDeltaTag) {
    return Status::InvalidArgument(
        "SlidingNipsCi: not a sliding-window delta fragment");
  }
  IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&version));
  if (version != kSlidingDeltaVersion) {
    return Status::InvalidArgument("SlidingNipsCi: unknown delta version " +
                                   std::to_string(version));
  }
  uint64_t window, stride, tuples, next_seed, num_origins;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&window));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&stride));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&tuples));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&next_seed));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&num_origins));
  if (window != options_.window || stride != options_.stride) {
    return Status::InvalidArgument(
        "SlidingNipsCi: delta window geometry differs from this window's");
  }
  if (tuples < tuples_) {
    return Status::InvalidArgument(
        "SlidingNipsCi: delta regresses the tuple clock");
  }
  if (num_origins > window / stride + 1 || num_origins > in.remaining()) {
    return Status::InvalidArgument("SlidingNipsCi: implausible origin count");
  }

  // Phase 1: decode and validate every shipped origin without touching any
  // state, so a refusal anywhere leaves the window byte-identical.
  struct Pending {
    uint64_t start = 0;
    size_t existing = 0;           // index into origins_ (patch mode)
    NipsCi::DeltaFragment patch;   // patch mode
    std::unique_ptr<NipsCi> full;  // full mode
  };
  std::vector<Pending> pending;
  pending.reserve(num_origins);
  uint64_t prev_start = 0;
  // Shipped starts increase and the sender only retires from the front,
  // so a forward scan matches patch-mode origins to the ones we hold.
  size_t cursor = 0;
  for (uint64_t i = 0; i < num_origins; ++i) {
    uint64_t start;
    IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&start));
    if (start % stride != 0 || start > tuples ||
        (i > 0 && start <= prev_start)) {
      return Status::InvalidArgument("SlidingNipsCi: bad origin start");
    }
    prev_start = start;
    uint8_t mode;
    IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&mode));
    std::string_view bytes;
    IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&bytes));
    Pending p;
    p.start = start;
    if (mode == 1) {
      while (cursor < origins_.size() && origins_[cursor].start < start) {
        ++cursor;
      }
      if (cursor == origins_.size() || origins_[cursor].start != start) {
        return Status::InvalidArgument(
            "SlidingNipsCi: delta patches an origin this window does not "
            "hold");
      }
      IMPLISTAT_ASSIGN_OR_RETURN(
          p.patch, origins_[cursor].estimator->DecodeDeltaFragment(bytes));
      p.existing = cursor;
      ++cursor;
    } else if (mode == 2) {
      IMPLISTAT_ASSIGN_OR_RETURN(NipsCi decoded, NipsCi::Deserialize(bytes));
      if (!(decoded.conditions() == conditions_)) {
        return Status::InvalidArgument(
            "SlidingNipsCi: origin conditions differ from the window's");
      }
      p.full = std::make_unique<NipsCi>(std::move(decoded));
    } else {
      return Status::InvalidArgument("SlidingNipsCi: bad origin mode");
    }
    pending.push_back(std::move(p));
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("SlidingNipsCi: trailing delta bytes");
  }

  // Phase 2: infallible. Rebuild the origins in shipped order; origins the
  // sender no longer lists were retired there and drop here.
  std::vector<Origin> rebuilt;
  rebuilt.reserve(pending.size());
  for (Pending& p : pending) {
    if (p.full) {
      rebuilt.push_back(Origin{p.start, std::move(p.full)});
    } else {
      Origin& old = origins_[p.existing];
      old.estimator->ApplyDeltaFragment(std::move(p.patch));
      rebuilt.push_back(Origin{p.start, std::move(old.estimator)});
    }
  }
  origins_ = std::move(rebuilt);
  tuples_ = tuples;
  next_seed_ = next_seed;
  return Status::OK();
}

}  // namespace implistat
