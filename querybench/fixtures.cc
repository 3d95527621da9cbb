#include "fixtures.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.h"
#include "datagen/address_gen.h"
#include "datagen/citation_gen.h"
#include "datagen/lexicon.h"
#include "predicates/address.h"
#include "predicates/citation.h"
#include "predicates/corpus.h"
#include "predicates/generic.h"
#include "sim/similarity.h"
#include "text/tokenize.h"

namespace topkdup::querybench {

topk::PairScoreFn NameScorer(const record::Dataset* data, int field) {
  return [data, field](size_t a, size_t b) {
    return (sim::JaroWinkler(text::NormalizeText((*data)[a].field(field)),
                             text::NormalizeText((*data)[b].field(field))) -
            0.85) *
           10.0;
  };
}

namespace {

/// Shuffles `data` by `order_seed`, moves it into a bundle and builds its
/// corpus; the caller adds the level predicates.
StatusOr<serve::DatasetBundle> BundleWithCorpus(
    record::Dataset data, uint64_t order_seed,
    predicates::Corpus::Options corpus_options) {
  Rng(order_seed).Shuffle(data.mutable_records());
  serve::DatasetBundle bundle;
  bundle.data = std::make_unique<record::Dataset>(std::move(data));
  TOPKDUP_ASSIGN_OR_RETURN(
      predicates::Corpus corpus,
      predicates::Corpus::Build(bundle.data.get(), std::move(corpus_options)));
  bundle.corpus = std::make_unique<predicates::Corpus>(std::move(corpus));
  bundle.scorer = NameScorer(bundle.data.get(), 0);
  return bundle;
}

void AddLevel(serve::DatasetBundle& bundle,
              std::unique_ptr<predicates::PairPredicate> sufficient,
              std::unique_ptr<predicates::PairPredicate> necessary) {
  bundle.levels = {{sufficient.get(), necessary.get()}};
  bundle.predicates.push_back(std::move(sufficient));
  bundle.predicates.push_back(std::move(necessary));
}

}  // namespace

StatusOr<serve::DatasetBundle> MakeCitationBundle(size_t records,
                                                  uint64_t order_seed) {
  datagen::CitationGenOptions gen;
  gen.num_records = records;
  gen.num_authors = std::max<size_t>(1, records / 4);
  TOPKDUP_ASSIGN_OR_RETURN(record::Dataset data,
                           datagen::GenerateCitations(gen));
  TOPKDUP_ASSIGN_OR_RETURN(serve::DatasetBundle bundle,
                           BundleWithCorpus(std::move(data), order_seed, {}));
  const predicates::Corpus* corpus = bundle.corpus.get();
  AddLevel(bundle,
           std::make_unique<predicates::CitationS1>(
               corpus, predicates::CitationFields{}, 0.75 * corpus->MaxIdf(0)),
           std::make_unique<predicates::QGramOverlapPredicate>(corpus, 0, 0.6));
  return bundle;
}

StatusOr<serve::DatasetBundle> MakeAddressBundle(size_t records,
                                                 uint64_t order_seed) {
  datagen::AddressGenOptions gen;
  gen.num_records = records;
  gen.num_entities = std::max<size_t>(1, records / 4);
  TOPKDUP_ASSIGN_OR_RETURN(record::Dataset data,
                           datagen::GenerateAddresses(gen));
  predicates::Corpus::Options corpus_options;
  corpus_options.stop_words = datagen::AddressStopWords();
  TOPKDUP_ASSIGN_OR_RETURN(
      serve::DatasetBundle bundle,
      BundleWithCorpus(std::move(data), order_seed, std::move(corpus_options)));
  const predicates::Corpus* corpus = bundle.corpus.get();
  const predicates::AddressFields fields;
  AddLevel(bundle, std::make_unique<predicates::AddressS1>(corpus, fields),
           std::make_unique<predicates::AddressN1>(corpus, fields));
  return bundle;
}

std::unique_ptr<topk::OnlineTopK> MakeCitationStream(
    const record::Schema& schema) {
  topk::OnlineTopK::Config config;
  config.sufficient_signature = [](const record::Record& r) {
    return std::vector<std::string>{text::NormalizeText(r.field(0))};
  };
  config.sufficient_match = [](const record::Record& a,
                               const record::Record& b) {
    return text::NormalizeText(a.field(0)) == text::NormalizeText(b.field(0));
  };
  config.necessary_factory = [](const predicates::Corpus& corpus) {
    return std::make_unique<predicates::QGramOverlapPredicate>(&corpus, 0,
                                                               0.6);
  };
  config.scorer_factory = [](const record::Dataset& reps) {
    return NameScorer(&reps, 0);
  };
  return std::make_unique<topk::OnlineTopK>(schema, std::move(config));
}

std::string CheckAnswers(const std::vector<topk::TopKAnswerSet>& answers,
                         const std::vector<double>& record_weights, int k,
                         int r) {
  if (answers.empty() || answers.size() > static_cast<size_t>(r)) {
    return "answer count outside [1, r]";
  }
  for (size_t a = 0; a < answers.size(); ++a) {
    const topk::TopKAnswerSet& answer = answers[a];
    if (a > 0 && answer.score > answers[a - 1].score) {
      return "answers not in score order";
    }
    if (answer.groups.size() != static_cast<size_t>(k)) {
      return "answer without k groups";
    }
    std::vector<bool> seen(record_weights.size(), false);
    for (size_t g = 0; g < answer.groups.size(); ++g) {
      const topk::AnswerGroup& group = answer.groups[g];
      if (g > 0 && group.weight > answer.groups[g - 1].weight) {
        return "groups not in weight order";
      }
      double sum = 0.0;
      for (size_t m : group.members) {
        if (m >= seen.size() || seen[m]) return "member invalid or repeated";
        seen[m] = true;
        sum += record_weights[m];
      }
      if (std::abs(sum - group.weight) > 1e-9 * std::max(1.0, sum)) {
        return "group weight is not its members' sum";
      }
      if (!(group.count_lower <= group.weight &&
            group.weight <= group.count_upper)) {
        return "group weight outside its count interval";
      }
    }
  }
  return "";
}

uint64_t AnswerDigest(const std::vector<topk::TopKAnswerSet>& answers) {
  std::string text;
  char buf[96];
  for (const topk::TopKAnswerSet& answer : answers) {
    std::snprintf(buf, sizeof(buf), "answer %.17g\n", answer.score);
    text += buf;
    // (-weight, line): sorting puts heavier groups first, ties by text.
    std::vector<std::pair<double, std::string>> groups;
    for (const topk::AnswerGroup& group : answer.groups) {
      std::vector<size_t> members = group.members;
      std::sort(members.begin(), members.end());
      std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g", group.weight,
                    group.count_lower, group.count_upper);
      std::string line = buf;
      for (size_t m : members) line += " " + std::to_string(m);
      groups.emplace_back(-group.weight, std::move(line));
    }
    std::sort(groups.begin(), groups.end());
    for (const auto& group : groups) text += group.second + "\n";
  }
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace topkdup::querybench
