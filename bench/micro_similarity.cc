// Micro benchmark: per-pair cost of every similarity function in the
// library, on realistic name-length strings.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "datagen/lexicon.h"
#include "sim/similarity.h"
#include "text/tokenize.h"
#include "text/vocab.h"

namespace topkdup {
namespace {

std::vector<std::string> MakeNames(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  names.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string name =
        datagen::FirstNames()[rng.Uniform(datagen::FirstNames().size())];
    name += ' ';
    name += datagen::LastNames()[rng.Uniform(datagen::LastNames().size())];
    names.push_back(std::move(name));
  }
  return names;
}

void BM_JaroWinkler(benchmark::State& state) {
  const auto names = MakeNames(256, 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::JaroWinkler(names[i % 256], names[(i + 7) % 256]));
    ++i;
  }
}
BENCHMARK(BM_JaroWinkler);

// Strings over 64 bytes take Jaro's scalar path instead of the
// bit-parallel one.
void BM_JaroWinklerLong(benchmark::State& state) {
  auto names = MakeNames(256, 6);
  for (size_t i = 0; i < names.size(); ++i) {
    while (names[i].size() <= 64) names[i] += ' ' + names[(i + 1) % 256];
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::JaroWinkler(names[i % 256], names[(i + 7) % 256]));
    ++i;
  }
}
BENCHMARK(BM_JaroWinklerLong);

void BM_NormalizeText(benchmark::State& state) {
  auto names = MakeNames(256, 7);
  for (std::string& name : names) name = "  " + name + "\t ";
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::NormalizeText(names[i % 256]));
    ++i;
  }
}
BENCHMARK(BM_NormalizeText);

void BM_Levenshtein(benchmark::State& state) {
  const auto names = MakeNames(256, 2);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::LevenshteinSimilarity(names[i % 256], names[(i + 7) % 256]));
    ++i;
  }
}
BENCHMARK(BM_Levenshtein);

void BM_JaccardTokenSets(benchmark::State& state) {
  const auto names = MakeNames(256, 3);
  text::Vocabulary vocab;
  std::vector<std::vector<text::TokenId>> grams;
  for (const auto& n : names) {
    grams.push_back(vocab.InternSet(text::QGrams(n, 3)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::Jaccard(grams[i % 256], grams[(i + 7) % 256]));
    ++i;
  }
}
BENCHMARK(BM_JaccardTokenSets);

void BM_CosineTfIdf(benchmark::State& state) {
  const auto names = MakeNames(256, 4);
  text::Vocabulary vocab;
  text::IdfTable idf;
  std::vector<std::vector<text::TokenId>> words;
  for (const auto& n : names) {
    words.push_back(vocab.InternSet(text::WordTokens(n)));
    idf.AddDocument(words.back());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::CosineTfIdf(words[i % 256], words[(i + 7) % 256], idf));
    ++i;
  }
}
BENCHMARK(BM_CosineTfIdf);

void BM_QGramTokenization(benchmark::State& state) {
  const auto names = MakeNames(256, 5);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::QGrams(names[i % 256], 3));
    ++i;
  }
}
BENCHMARK(BM_QGramTokenization);

}  // namespace
}  // namespace topkdup

BENCHMARK_MAIN();
