#include "obs/explain.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"

namespace topkdup::obs {

namespace {

/// Per-report cap on stored detail events (sampled merges + prune
/// decisions + embedding picks). Summaries are exact regardless; the cap
/// only bounds report memory on huge inputs at sample_rate 1.0.
constexpr size_t kMaxDetailEvents = size_t{1} << 18;

/// JSON number from a double: integral values print plainly, others with
/// enough digits to round-trip the comparisons the report documents.
std::string JsonNumber(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 4.6e18) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.17g", v);
}

std::string JsonString(std::string_view s) {
  std::string out;
  AppendJsonString(&out, s);
  return out;
}

void AppendSizeArray(std::string* out, const std::vector<size_t>& values) {
  *out += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ",";
    *out += StrFormat("%zu", values[i]);
  }
  *out += "]";
}

}  // namespace

const char* PruneVerdictName(PruneVerdict verdict) {
  switch (verdict) {
    case PruneVerdict::kKeptOwnWeight:
      return "kept_own_weight";
    case PruneVerdict::kKeptBoundEarlyExit:
      return "kept_bound_early_exit";
    case PruneVerdict::kKeptBoundFull:
      return "kept_bound_full";
    case PruneVerdict::kPrunedBoundBelowM:
      return "pruned_bound_below_M";
  }
  return "unknown";
}

std::string ExplainReport::ToJson() const {
  std::string out;
  out += StrFormat("{\"schema_version\":%d", kSchemaVersion);
  // Conditional so reports from non-serve paths (query_id == 0) stay
  // byte-identical to documents rendered before the field existed.
  if (query_id != 0) {
    out += StrFormat(",\"query_id\":%llu",
                     static_cast<unsigned long long>(query_id));
  }
  if (epoch != 0) {
    out += StrFormat(",\"epoch\":%llu",
                     static_cast<unsigned long long>(epoch));
  }
  out += StrFormat(",\"sample_rate\":%s", JsonNumber(sample_rate).c_str());
  out += ",\"levels\":[";
  for (size_t l = 0; l < levels.size(); ++l) {
    const LevelExplain& lv = levels[l];
    if (l > 0) out += ",";
    out += StrFormat("{\"level\":%d,\"sufficient_predicate\":%s,"
                     "\"necessary_predicate\":%s",
                     lv.level, JsonString(lv.sufficient_predicate).c_str(),
                     JsonString(lv.necessary_predicate).c_str());
    out += StrFormat(",\"collapse\":{\"groups_in\":%zu,\"groups_out\":%zu,"
                     "\"sampled_merges\":[",
                     lv.collapse.groups_in, lv.collapse.groups_out);
    for (size_t i = 0; i < lv.collapse.sampled_merges.size(); ++i) {
      const CollapseMergeExplain& m = lv.collapse.sampled_merges[i];
      if (i > 0) out += ",";
      out += StrFormat(
          "{\"winner_rep\":%zu,\"loser_rep\":%zu,\"winner_weight\":%s,"
          "\"loser_weight\":%s}",
          m.winner_rep, m.loser_rep, JsonNumber(m.winner_weight).c_str(),
          JsonNumber(m.loser_weight).c_str());
    }
    out += "]}";
    if (lv.has_lower_bound) {
      const LevelLowerBoundExplain& lb = lv.lower_bound;
      out += StrFormat(
          ",\"lower_bound\":{\"m\":%zu,\"M\":%s,\"certified\":%s,"
          "\"edges_examined\":%zu,\"cpn_evaluations\":%zu,\"probes\":[",
          lb.m, JsonNumber(lb.M).c_str(), lb.certified ? "true" : "false",
          lb.edges_examined, lb.cpn_evaluations);
      for (size_t i = 0; i < lb.probes.size(); ++i) {
        const CpnProbeExplain& p = lb.probes[i];
        if (i > 0) out += ",";
        out += StrFormat("{\"prefix\":%zu,\"bound\":%d,\"phase\":%s}",
                         p.prefix, p.bound, JsonString(p.phase).c_str());
      }
      out += "]}";
      const LevelPruneExplain& pr = lv.prune;
      out += StrFormat(
          ",\"prune\":{\"passes\":%d,\"M\":%s,\"groups_in\":%zu,"
          "\"groups_pruned\":%zu,\"groups_out\":%zu,\"sampled_decisions\":[",
          pr.passes, JsonNumber(pr.M).c_str(), pr.groups_in,
          pr.groups_pruned, pr.groups_out);
      for (size_t i = 0; i < pr.sampled_decisions.size(); ++i) {
        const PruneDecisionExplain& d = pr.sampled_decisions[i];
        if (i > 0) out += ",";
        out += StrFormat(
            "{\"pass\":%d,\"group\":%zu,\"rep\":%zu,\"weight\":%s,"
            "\"upper_bound\":%s,\"M\":%s,\"neighbors_contributing\":%zu,"
            "\"survived\":%s,\"verdict\":\"%s\"}",
            d.pass, d.group, d.rep, JsonNumber(d.weight).c_str(),
            JsonNumber(d.upper_bound).c_str(), JsonNumber(d.M).c_str(),
            d.neighbors_contributing, d.survived ? "true" : "false",
            PruneVerdictName(d.verdict));
      }
      out += "]}";
    }
    out += "}";
  }
  out += "]";
  if (has_embedding) {
    out += StrFormat(
        ",\"embedding\":{\"items\":%zu,\"alpha\":%s,\"regions\":%zu,"
        "\"sampled_picks\":[",
        embedding.items, JsonNumber(embedding.alpha).c_str(),
        embedding.regions);
    for (size_t i = 0; i < embedding.sampled_picks.size(); ++i) {
      const EmbeddingPickExplain& p = embedding.sampled_picks[i];
      if (i > 0) out += ",";
      out += StrFormat(
          "{\"step\":%zu,\"item\":%zu,\"affinity\":%s,\"runner_up\":%zu,"
          "\"runner_up_affinity\":%s,\"new_region\":%s}",
          p.step, p.item, JsonNumber(p.affinity).c_str(), p.runner_up,
          JsonNumber(p.runner_up_affinity).c_str(),
          p.new_region ? "true" : "false");
    }
    out += "]}";
  }
  if (has_segment_dp) {
    out += StrFormat(
        ",\"segment_dp\":{\"rows\":%zu,\"band\":%zu,\"cells_filled\":%zu,"
        "\"answers_found\":%zu,\"best_boundaries\":",
        segment_dp.rows, segment_dp.band, segment_dp.cells_filled,
        segment_dp.answers_found);
    AppendSizeArray(&out, segment_dp.best_boundaries);
    out += ",\"runner_up_boundaries\":";
    AppendSizeArray(&out, segment_dp.runner_up_boundaries);
    out += "}";
  }
  out += ",\"answers\":[";
  for (size_t a = 0; a < answers.size(); ++a) {
    const AnswerExplain& ans = answers[a];
    if (a > 0) out += ",";
    out += StrFormat(
        "{\"rank\":%d,\"score\":%s,\"threshold\":%s,\"posterior\":%s,"
        "\"groups\":[",
        ans.rank, JsonNumber(ans.score).c_str(),
        JsonNumber(ans.threshold).c_str(),
        JsonNumber(ans.posterior).c_str());
    for (size_t g = 0; g < ans.groups.size(); ++g) {
      const AnswerGroupExplain& ag = ans.groups[g];
      if (g > 0) out += ",";
      out += StrFormat(
          "{\"weight\":%s,\"representative\":%zu,\"member_count\":%zu,"
          "\"span_begin\":%zu,\"span_end\":%zu,\"segment_score\":%s}",
          JsonNumber(ag.weight).c_str(), ag.representative, ag.member_count,
          ag.span_begin, ag.span_end, JsonNumber(ag.segment_score).c_str());
    }
    out += "]}";
  }
  out += "]";
  if (has_degradation) {
    out += StrFormat(
        ",\"degradation\":{\"stage\":%s,\"level\":%d,\"reason\":%s,"
        "\"work_done\":%llu,\"work_budget\":%llu,\"partial_stage\":%s}",
        JsonString(degradation.stage).c_str(), degradation.level,
        JsonString(degradation.reason).c_str(),
        static_cast<unsigned long long>(degradation.work_done),
        static_cast<unsigned long long>(degradation.work_budget),
        degradation.partial_stage ? "true" : "false");
  }
  if (has_resources) {
    out += StrFormat(",\"resources\":{\"cpu_ms\":%.4f,\"stages_ms\":{",
                     resources.cpu_ms);
    for (size_t i = 0; i < resources.stages_ms.size(); ++i) {
      if (i > 0) out += ",";
      out += StrFormat("%s:%.4f",
                       JsonString(resources.stages_ms[i].first).c_str(),
                       resources.stages_ms[i].second);
    }
    out += "}}";
  }
  out += StrFormat(",\"events_dropped\":%zu}", events_dropped);
  return out;
}

std::string ExplainReport::ToText() const {
  std::string out;
  out += StrFormat("explain report (schema v%d, sample_rate=%.3f)\n",
                   kSchemaVersion, sample_rate);
  if (query_id != 0) {
    out += StrFormat("query_id %llu\n",
                     static_cast<unsigned long long>(query_id));
  }
  if (epoch != 0) {
    out += StrFormat("epoch %llu\n",
                     static_cast<unsigned long long>(epoch));
  }
  for (const LevelExplain& lv : levels) {
    out += StrFormat("level %d\n", lv.level);
    out += StrFormat("  collapse [%s]: %zu -> %zu groups\n",
                     lv.sufficient_predicate.empty()
                         ? "-"
                         : lv.sufficient_predicate.c_str(),
                     lv.collapse.groups_in, lv.collapse.groups_out);
    for (const CollapseMergeExplain& m : lv.collapse.sampled_merges) {
      out += StrFormat(
          "    merge: rep %zu (w=%.1f) absorbed rep %zu (w=%.1f)\n",
          m.winner_rep, m.winner_weight, m.loser_rep, m.loser_weight);
    }
    if (lv.has_lower_bound) {
      const LevelLowerBoundExplain& lb = lv.lower_bound;
      out += StrFormat(
          "  lower bound [%s]: m=%zu fixed M=%.3f (%s; %zu edges, "
          "%zu CPN evaluations)\n",
          lv.necessary_predicate.empty() ? "-"
                                         : lv.necessary_predicate.c_str(),
          lb.m, lb.M, lb.certified ? "certified" : "uncertified",
          lb.edges_examined, lb.cpn_evaluations);
      for (const CpnProbeExplain& p : lb.probes) {
        out += StrFormat("    probe (%s): prefix %zu -> CPN bound %d\n",
                         p.phase.c_str(), p.prefix, p.bound);
      }
      const LevelPruneExplain& pr = lv.prune;
      out += StrFormat(
          "  prune: %zu -> %zu groups (%zu pruned against M=%.3f, "
          "%d passes)\n",
          pr.groups_in, pr.groups_out, pr.groups_pruned, pr.M, pr.passes);
      for (const PruneDecisionExplain& d : pr.sampled_decisions) {
        out += StrFormat(
            "    pass %d group %zu (rep %zu, w=%.1f): bound %.3f vs "
            "M=%.3f via %zu neighbors -> %s\n",
            d.pass, d.group, d.rep, d.weight, d.upper_bound, d.M,
            d.neighbors_contributing, PruneVerdictName(d.verdict));
      }
    }
  }
  if (has_embedding) {
    out += StrFormat("embedding: %zu items, alpha=%.3f, %zu regions\n",
                     embedding.items, embedding.alpha, embedding.regions);
    for (const EmbeddingPickExplain& p : embedding.sampled_picks) {
      if (p.new_region) {
        out += StrFormat("  step %zu: item %zu seeds a new region\n",
                         p.step, p.item);
      } else if (p.runner_up >= embedding.items) {
        out += StrFormat(
            "  step %zu: item %zu placed (aged affinity %.4f, "
            "unopposed)\n",
            p.step, p.item, p.affinity);
      } else {
        out += StrFormat(
            "  step %zu: item %zu placed (aged affinity %.4f) over item "
            "%zu (%.4f)\n",
            p.step, p.item, p.affinity, p.runner_up, p.runner_up_affinity);
      }
    }
  }
  if (has_segment_dp) {
    out += StrFormat(
        "segment DP: %zu x %zu table, %zu cells filled, %zu answers\n",
        segment_dp.rows, segment_dp.band, segment_dp.cells_filled,
        segment_dp.answers_found);
    auto boundary_line = [&](const char* label,
                             const std::vector<size_t>& ends) {
      if (ends.empty()) return;
      out += StrFormat("  %s boundaries (span ends):", label);
      for (size_t e : ends) out += StrFormat(" %zu", e);
      out += "\n";
    };
    boundary_line("best", segment_dp.best_boundaries);
    boundary_line("runner-up", segment_dp.runner_up_boundaries);
  }
  for (const AnswerExplain& ans : answers) {
    out += StrFormat(
        "answer %d: score=%.4f threshold=%.3f posterior=%.4f\n", ans.rank,
        ans.score, ans.threshold, ans.posterior);
    for (const AnswerGroupExplain& ag : ans.groups) {
      out += StrFormat(
          "  group rep %zu: weight=%.1f members=%zu span=[%zu,%zu] "
          "segment score %.4f\n",
          ag.representative, ag.weight, ag.member_count, ag.span_begin,
          ag.span_end, ag.segment_score);
    }
  }
  if (has_degradation) {
    out += StrFormat(
        "degraded: deadline expired (%s) in stage %s at level %d (%s)\n",
        degradation.reason.c_str(), degradation.stage.c_str(),
        degradation.level,
        degradation.partial_stage ? "mid-stage" : "stage boundary");
    if (degradation.work_budget > 0) {
      out += StrFormat("  work: %llu charged of %llu budgeted\n",
                       static_cast<unsigned long long>(degradation.work_done),
                       static_cast<unsigned long long>(
                           degradation.work_budget));
    }
  }
  if (has_resources) {
    out += StrFormat("resources: %.4f ms CPU\n", resources.cpu_ms);
    for (const auto& [stage, ms] : resources.stages_ms) {
      out += StrFormat("  %s: %.4f ms\n", stage.c_str(), ms);
    }
  }
  if (events_dropped > 0) {
    out += StrFormat("(%zu detail events dropped past the cap)\n",
                     events_dropped);
  }
  return out;
}

ExplainRecorder::ExplainRecorder(double sample_rate)
    : sample_rate_(sample_rate) {
  report_.sample_rate = sample_rate;
}

void ExplainRecorder::set_query_id(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  report_.query_id = query_id;
}

bool ExplainRecorder::SampleKey(uint64_t key) const {
  if (sample_rate_ >= 1.0) return true;
  if (sample_rate_ <= 0.0) return false;
  // Top 53 mixed bits as a uniform double in [0, 1).
  const double u =
      static_cast<double>(SplitMix64(key) >> 11) * 0x1.0p-53;
  return u < sample_rate_;
}

LevelExplain& ExplainRecorder::CurrentLevelLocked() {
  if (report_.levels.empty()) {
    LevelExplain level;
    level.level = 0;
    report_.levels.push_back(std::move(level));
  }
  return report_.levels.back();
}

bool ExplainRecorder::AdmitDetailLocked() {
  if (detail_events_ >= kMaxDetailEvents) {
    ++report_.events_dropped;
    return false;
  }
  ++detail_events_;
  return true;
}

void ExplainRecorder::BeginLevel(std::string sufficient_predicate,
                                 std::string necessary_predicate,
                                 bool has_lower_bound) {
  std::lock_guard<std::mutex> lock(mu_);
  LevelExplain level;
  level.level = static_cast<int>(report_.levels.size());
  level.sufficient_predicate = std::move(sufficient_predicate);
  level.necessary_predicate = std::move(necessary_predicate);
  level.has_lower_bound = has_lower_bound;
  report_.levels.push_back(std::move(level));
}

void ExplainRecorder::RecordCollapseSummary(size_t groups_in,
                                            size_t groups_out) {
  std::lock_guard<std::mutex> lock(mu_);
  LevelCollapseExplain& collapse = CurrentLevelLocked().collapse;
  collapse.groups_in = groups_in;
  collapse.groups_out = groups_out;
}

void ExplainRecorder::RecordCollapseMerge(
    const CollapseMergeExplain& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!AdmitDetailLocked()) return;
  CurrentLevelLocked().collapse.sampled_merges.push_back(event);
}

void ExplainRecorder::RecordCpnProbe(size_t prefix, int bound,
                                     const char* phase) {
  std::lock_guard<std::mutex> lock(mu_);
  CurrentLevelLocked().lower_bound.probes.push_back(
      {prefix, bound, std::string(phase)});
}

void ExplainRecorder::RecordLowerBound(size_t m, double M, bool certified,
                                       size_t edges_examined,
                                       size_t cpn_evaluations) {
  std::lock_guard<std::mutex> lock(mu_);
  LevelLowerBoundExplain& lb = CurrentLevelLocked().lower_bound;
  lb.m = m;
  lb.M = M;
  lb.certified = certified;
  lb.edges_examined = edges_examined;
  lb.cpn_evaluations = cpn_evaluations;
}

void ExplainRecorder::RecordPruneSummary(int passes, double M,
                                         size_t groups_in,
                                         size_t groups_out) {
  std::lock_guard<std::mutex> lock(mu_);
  LevelPruneExplain& prune = CurrentLevelLocked().prune;
  prune.passes = passes;
  prune.M = M;
  prune.groups_in = groups_in;
  prune.groups_out = groups_out;
  prune.groups_pruned = groups_in - groups_out;
}

void ExplainRecorder::RecordPruneDecision(
    const PruneDecisionExplain& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!AdmitDetailLocked()) return;
  CurrentLevelLocked().prune.sampled_decisions.push_back(event);
}

void ExplainRecorder::RecordEmbeddingSummary(size_t items, double alpha,
                                             size_t regions) {
  std::lock_guard<std::mutex> lock(mu_);
  report_.has_embedding = true;
  report_.embedding.items = items;
  report_.embedding.alpha = alpha;
  report_.embedding.regions = regions;
}

void ExplainRecorder::RecordEmbeddingPick(
    const EmbeddingPickExplain& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!AdmitDetailLocked()) return;
  report_.has_embedding = true;
  report_.embedding.sampled_picks.push_back(event);
}

void ExplainRecorder::RecordSegmentDp(SegmentDpExplain summary) {
  std::lock_guard<std::mutex> lock(mu_);
  report_.has_segment_dp = true;
  report_.segment_dp = std::move(summary);
}

void ExplainRecorder::RecordAnswer(AnswerExplain answer) {
  std::lock_guard<std::mutex> lock(mu_);
  report_.answers.push_back(std::move(answer));
}

void ExplainRecorder::RecordDegradation(const DegradationInfo& info) {
  std::lock_guard<std::mutex> lock(mu_);
  if (report_.has_degradation) return;
  report_.has_degradation = true;
  report_.degradation.stage = info.stage;
  report_.degradation.level = info.level;
  report_.degradation.reason = DeadlineReasonName(info.reason);
  report_.degradation.work_done = info.work_done;
  report_.degradation.work_budget = info.work_budget;
  report_.degradation.partial_stage = info.partial_stage;
}

ExplainReport ExplainRecorder::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  for (LevelExplain& level : report_.levels) {
    // Concurrent sections get a canonical order so the report is
    // byte-identical at any thread count (same contract as §6b).
    std::sort(level.prune.sampled_decisions.begin(),
              level.prune.sampled_decisions.end(),
              [](const PruneDecisionExplain& a,
                 const PruneDecisionExplain& b) {
                if (a.pass != b.pass) return a.pass < b.pass;
                return a.group < b.group;
              });
    std::sort(level.collapse.sampled_merges.begin(),
              level.collapse.sampled_merges.end(),
              [](const CollapseMergeExplain& a,
                 const CollapseMergeExplain& b) {
                if (a.winner_rep != b.winner_rep) {
                  return a.winner_rep < b.winner_rep;
                }
                return a.loser_rep < b.loser_rep;
              });
  }
  std::sort(report_.answers.begin(), report_.answers.end(),
            [](const AnswerExplain& a, const AnswerExplain& b) {
              return a.rank < b.rank;
            });
  return std::move(report_);
}

}  // namespace topkdup::obs
