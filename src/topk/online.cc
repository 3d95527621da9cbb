#include "topk/online.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"

namespace topkdup::topk {
namespace {

metrics::Counter& EpochsPublishedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global().GetCounter("online.epochs_published");
  return *c;
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

}  // namespace

OnlineTopK::OnlineTopK(record::Schema schema, Config config)
    : schema_(schema), config_(std::move(config)), mentions_(schema) {
  TOPKDUP_CHECK(config_.sufficient_signature != nullptr);
  TOPKDUP_CHECK(config_.sufficient_match != nullptr);
  TOPKDUP_CHECK(config_.necessary_factory != nullptr);
  TOPKDUP_CHECK(config_.scorer_factory != nullptr);
  collapse_ = std::make_unique<dedup::StreamingCollapse>(
      [this](size_t a, size_t b) {
        return config_.sufficient_match(mentions_[a], mentions_[b]);
      });
}

Status OnlineTopK::AddMention(record::Record mention) {
  if (mention.fields.size() != schema_.field_count()) {
    return Status::InvalidArgument(
        "mention has " + std::to_string(mention.fields.size()) +
        " fields, stream schema has " +
        std::to_string(schema_.field_count()));
  }
  const std::vector<std::string> signature =
      config_.sufficient_signature(mention);
  const double weight = mention.weight;
  mentions_.Add(std::move(mention));
  total_weight_ += weight;
  collapse_->Insert(signature, weight);
  mention_count_.store(mentions_.size(), std::memory_order_release);
  return Status::OK();
}

uint64_t OnlineTopK::PublishEpoch() {
  // Build the frozen snapshot outside the publish mutex: pinning readers
  // only ever wait for the pointer swap below, never the O(mentions) copy.
  auto next = std::make_shared<EpochSnapshot>();
  next->snapshot = TakeSnapshot();
  const uint64_t id = epoch_.load(std::memory_order_relaxed) + 1;
  next->epoch = id;
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    published_ = std::move(next);
    epoch_.store(id, std::memory_order_release);
  }
  EpochsPublishedCounter().Add(1);
  return id;
}

std::shared_ptr<const OnlineTopK::EpochSnapshot> OnlineTopK::PinEpoch()
    const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return published_;
}

void OnlineTopK::RestoreEpochCounter(uint64_t epoch) {
  uint64_t cur = epoch_.load(std::memory_order_relaxed);
  while (epoch > cur &&
         !epoch_.compare_exchange_weak(cur, epoch,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
}

std::string EncodeMention(const record::Record& mention) {
  std::string out;
  size_t bytes = 8 + 8 + 4;
  for (const std::string& f : mention.fields) bytes += 4 + f.size();
  out.reserve(bytes);
  PutF64(&out, mention.weight);
  PutU64(&out, static_cast<uint64_t>(mention.entity_id));
  PutU32(&out, static_cast<uint32_t>(mention.fields.size()));
  for (const std::string& f : mention.fields) {
    PutU32(&out, static_cast<uint32_t>(f.size()));
    out.append(f);
  }
  return out;
}

StatusOr<record::Record> DecodeMention(std::string_view payload) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
  size_t pos = 0;
  auto need = [&](size_t n) {
    return pos + n <= payload.size();
  };
  if (!need(20)) {
    return Status::InvalidArgument("mention payload too short for header");
  }
  record::Record rec;
  uint64_t wbits = GetU64(p + pos);
  std::memcpy(&rec.weight, &wbits, sizeof(rec.weight));
  pos += 8;
  rec.entity_id = static_cast<int64_t>(GetU64(p + pos));
  pos += 8;
  uint32_t nfields = GetU32(p + pos);
  pos += 4;
  // Each field costs at least its 4-byte length prefix; an nfields that
  // cannot fit is rejected before any allocation sized from it.
  if (nfields > (payload.size() - pos) / 4) {
    return Status::InvalidArgument("mention payload field count " +
                                   std::to_string(nfields) +
                                   " exceeds payload capacity");
  }
  rec.fields.reserve(nfields);
  for (uint32_t i = 0; i < nfields; ++i) {
    if (!need(4)) {
      return Status::InvalidArgument("mention payload truncated field length");
    }
    uint32_t len = GetU32(p + pos);
    pos += 4;
    if (!need(len)) {
      return Status::InvalidArgument("mention payload truncated field body");
    }
    rec.fields.emplace_back(payload.substr(pos, len));
    pos += len;
  }
  if (pos != payload.size()) {
    return Status::InvalidArgument("mention payload has " +
                                   std::to_string(payload.size() - pos) +
                                   " trailing bytes");
  }
  return rec;
}

OnlineTopK::Snapshot OnlineTopK::TakeSnapshot() {
  Snapshot snapshot;
  snapshot.reps = record::Dataset(schema_);
  snapshot.mention_count = mentions_.size();
  snapshot.total_weight = total_weight_;
  snapshot.mention_weights.reserve(mentions_.size());
  for (size_t i = 0; i < mentions_.size(); ++i) {
    snapshot.mention_weights.push_back(mentions_[i].weight);
  }

  // Materialize one representative record per collapsed group; its weight
  // is the group's total weight, so downstream pruning and the TopK DP see
  // the stream's true counts.
  const std::vector<dedup::StreamingCollapse::GroupView> groups =
      collapse_->Groups();
  snapshot.group_members.reserve(groups.size());
  for (const auto& group : groups) {
    // Heaviest member as representative.
    size_t best = group.members.front();
    for (size_t m : group.members) {
      if (mentions_[m].weight > mentions_[best].weight) best = m;
    }
    record::Record rep = mentions_[best];
    rep.weight = group.weight;
    snapshot.reps.Add(std::move(rep));
    snapshot.group_members.push_back(group.members);
  }
  return snapshot;
}

StatusOr<TopKCountResult> OnlineTopK::QuerySnapshot(
    const Snapshot& snapshot, const TopKCountOptions& options,
    const QueryContext& context) const {
  // The corpus over the snapshot's representatives and the predicate and
  // scorer built on it are the query's "corpus" stage.
  std::optional<trace::Span> corpus_span(std::in_place, "online.corpus");
  auto corpus_or = predicates::Corpus::Build(&snapshot.reps, {});
  TOPKDUP_RETURN_IF_ERROR(corpus_or.status());
  const predicates::Corpus& corpus = corpus_or.value();
  std::unique_ptr<predicates::PairPredicate> necessary =
      config_.necessary_factory(corpus);
  const PairScoreFn scorer = config_.scorer_factory(snapshot.reps);
  corpus_span.reset();

  // The collapse already happened incrementally: run pruning + clustering
  // with a necessary-only level over the representative dataset.
  TOPKDUP_ASSIGN_OR_RETURN(
      TopKCountResult result,
      TopKCountQuery(snapshot.reps, {{nullptr, necessary.get()}}, scorer,
                     options, context));

  // Translate representative-dataset member ids back to mention ids.
  for (TopKAnswerSet& answer : result.answers) {
    for (AnswerGroup& group : answer.groups) {
      std::vector<size_t> mention_ids;
      for (size_t rep_id : group.members) {
        const auto& members = snapshot.group_members[rep_id];
        mention_ids.insert(mention_ids.end(), members.begin(),
                           members.end());
      }
      group.members = std::move(mention_ids);
      // The representative index also needs mapping: point it at the
      // heaviest underlying mention.
      size_t best = group.members.front();
      for (size_t m : group.members) {
        if (snapshot.mention_weights[m] > snapshot.mention_weights[best]) {
          best = m;
        }
      }
      group.representative = best;
    }
  }
  return result;
}

StatusOr<TopKCountResult> OnlineTopK::Query(const TopKCountOptions& options,
                                            const QueryContext& context) {
  return QuerySnapshot(TakeSnapshot(), options, context);
}

}  // namespace topkdup::topk
