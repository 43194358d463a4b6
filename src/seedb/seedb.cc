#include "seedb/seedb.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/macros.h"
#include "common/rng.h"

namespace bigdawg::seedb {

const char* ViewAggToString(ViewAgg agg) {
  switch (agg) {
    case ViewAgg::kAvg:
      return "avg";
    case ViewAgg::kSum:
      return "sum";
    case ViewAgg::kCount:
      return "count";
  }
  return "?";
}

std::string ViewSpec::ToString() const {
  std::string m = measure.empty() ? "*" : measure;
  return std::string(ViewAggToString(agg)) + "(" + m + ") GROUP BY " + dimension;
}

double EarthMoversDistance(const std::vector<double>& a,
                           const std::vector<double>& b) {
  // Normalize both to probability distributions.
  double sum_a = 0, sum_b = 0;
  for (double v : a) sum_a += std::fabs(v);
  for (double v : b) sum_b += std::fabs(v);
  if (sum_a == 0 && sum_b == 0) return 0;
  if (sum_a == 0 || sum_b == 0) return 1.0;
  // 1-D EMD = cumulative absolute difference.
  double emd = 0, carry = 0;
  const size_t n = std::max(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    double pa = i < a.size() ? std::fabs(a[i]) / sum_a : 0;
    double pb = i < b.size() ? std::fabs(b[i]) / sum_b : 0;
    carry += pa - pb;
    emd += std::fabs(carry);
  }
  return emd;
}

SeeDb::SeeDb(relational::Table data, relational::ExprPtr target_predicate)
    : data_(std::move(data)), predicate_(std::move(target_predicate)) {
  init_status_ = predicate_->Bind(data_.schema());
  if (!init_status_.ok()) return;
  in_target_.resize(data_.num_rows(), false);
  for (size_t i = 0; i < data_.num_rows(); ++i) {
    Result<Value> v = predicate_->Eval(data_.rows()[i]);
    if (!v.ok()) {
      init_status_ = v.status();
      return;
    }
    in_target_[i] = relational::IsTrue(*v);
  }
}

std::vector<ViewSpec> SeeDb::EnumerateViews() const {
  // Attributes the target predicate conditions on are excluded: grouping
  // by a selection attribute deviates trivially and tells the analyst
  // nothing (SeeDB's view-space rule).
  std::vector<std::string> predicate_cols;
  predicate_->CollectColumnRefs(&predicate_cols);
  std::set<std::string> excluded(predicate_cols.begin(), predicate_cols.end());

  // Surrogate-key columns carry no analytic meaning as measures or
  // dimensions; skip anything named like an id.
  auto is_id_column = [](const std::string& name) {
    return name == "id" || (name.size() > 3 && name.compare(name.size() - 3, 3, "_id") == 0);
  };

  std::vector<std::string> dimensions;
  std::vector<std::string> measures;
  for (const Field& f : data_.schema().fields()) {
    if (excluded.count(f.name) > 0 || is_id_column(f.name)) continue;
    if (f.type == DataType::kString) dimensions.push_back(f.name);
    if (IsNumeric(f.type)) measures.push_back(f.name);
  }
  std::vector<ViewSpec> views;
  for (const std::string& d : dimensions) {
    views.push_back({d, "", ViewAgg::kCount});
    for (const std::string& m : measures) {
      views.push_back({d, m, ViewAgg::kAvg});
      views.push_back({d, m, ViewAgg::kSum});
    }
  }
  return views;
}

Result<ViewResult> SeeDb::EvaluateViewOnRows(
    const ViewSpec& spec, const std::vector<size_t>& row_ids) const {
  BIGDAWG_RETURN_NOT_OK(init_status_);
  BIGDAWG_ASSIGN_OR_RETURN(size_t dim_idx, data_.schema().IndexOf(spec.dimension));
  size_t measure_idx = 0;
  if (spec.agg != ViewAgg::kCount) {
    BIGDAWG_ASSIGN_OR_RETURN(measure_idx, data_.schema().IndexOf(spec.measure));
  }

  struct GroupAgg {
    double sum_target = 0, sum_ref = 0;
    int64_t count_target = 0, count_ref = 0;
  };
  std::map<std::string, GroupAgg> groups;
  for (size_t row_id : row_ids) {
    const Row& row = data_.rows()[row_id];
    const Value& dim = row[dim_idx];
    if (dim.is_null()) continue;
    GroupAgg& g = groups[dim.ToString()];
    double v = 0;
    if (spec.agg != ViewAgg::kCount) {
      const Value& mv = row[measure_idx];
      if (mv.is_null()) continue;
      v = *mv.ToNumeric();
    }
    if (in_target_[row_id]) {
      g.sum_target += v;
      ++g.count_target;
    } else {
      g.sum_ref += v;
      ++g.count_ref;
    }
  }

  ViewResult result;
  result.spec = spec;
  for (const auto& [group, g] : groups) {
    result.distribution.groups.push_back(group);
    double t = 0, r = 0;
    switch (spec.agg) {
      case ViewAgg::kCount:
        t = static_cast<double>(g.count_target);
        r = static_cast<double>(g.count_ref);
        break;
      case ViewAgg::kSum:
        t = g.sum_target;
        r = g.sum_ref;
        break;
      case ViewAgg::kAvg:
        t = g.count_target > 0 ? g.sum_target / static_cast<double>(g.count_target) : 0;
        r = g.count_ref > 0 ? g.sum_ref / static_cast<double>(g.count_ref) : 0;
        break;
    }
    result.distribution.target.push_back(t);
    result.distribution.reference.push_back(r);
  }
  result.utility =
      EarthMoversDistance(result.distribution.target, result.distribution.reference);
  return result;
}

Result<ViewResult> SeeDb::EvaluateView(const ViewSpec& spec) const {
  std::vector<size_t> all(data_.num_rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return EvaluateViewOnRows(spec, all);
}

Result<std::vector<ViewResult>> SeeDb::RecommendFull(size_t k) const {
  BIGDAWG_RETURN_NOT_OK(init_status_);
  std::vector<ViewResult> results;
  for (const ViewSpec& spec : EnumerateViews()) {
    BIGDAWG_ASSIGN_OR_RETURN(ViewResult r, EvaluateView(spec));
    results.push_back(std::move(r));
  }
  std::sort(results.begin(), results.end(),
            [](const ViewResult& a, const ViewResult& b) {
              if (a.utility != b.utility) return a.utility > b.utility;
              return a.spec.ToString() < b.spec.ToString();
            });
  if (results.size() > k) results.resize(k);
  return results;
}

Result<std::vector<ViewResult>> SeeDb::RecommendSampled(size_t k,
                                                        double sample_fraction,
                                                        uint64_t seed,
                                                        SeeDbStats* stats) const {
  BIGDAWG_RETURN_NOT_OK(init_status_);
  if (sample_fraction <= 0 || sample_fraction > 1) {
    return Status::InvalidArgument("sample_fraction must be in (0, 1]");
  }
  // Phase 1: utilities on a Bernoulli row sample.
  Rng rng(seed);
  std::vector<size_t> sample;
  for (size_t i = 0; i < data_.num_rows(); ++i) {
    if (rng.NextBool(sample_fraction)) sample.push_back(i);
  }
  if (sample.empty() && data_.num_rows() > 0) sample.push_back(0);

  std::vector<ViewSpec> views = EnumerateViews();
  struct Estimate {
    ViewSpec spec;
    double utility;
  };
  std::vector<Estimate> estimates;
  for (const ViewSpec& spec : views) {
    BIGDAWG_ASSIGN_OR_RETURN(ViewResult r, EvaluateViewOnRows(spec, sample));
    estimates.push_back({spec, r.utility});
  }
  std::sort(estimates.begin(), estimates.end(),
            [](const Estimate& a, const Estimate& b) { return a.utility > b.utility; });

  // Confidence-interval pruning: estimated utilities carry an error band
  // ~ 1/sqrt(sample size); a view survives when its optimistic utility
  // (estimate + band) can still reach the current k-th best estimate.
  // EMD of normalized distributions concentrates fast; 0.5/sqrt(n) is a
  // conservative band for the sampling error of a utility estimate.
  const double band = 0.5 / std::sqrt(static_cast<double>(
                                std::max<size_t>(1, sample.size())));
  double kth = k <= estimates.size() && k > 0 ? estimates[k - 1].utility : 0.0;
  std::vector<ViewSpec> survivors;
  for (const Estimate& e : estimates) {
    if (e.utility + band >= kth) survivors.push_back(e.spec);
  }

  // Phase 2: exact evaluation of survivors.
  std::vector<ViewResult> results;
  for (const ViewSpec& spec : survivors) {
    BIGDAWG_ASSIGN_OR_RETURN(ViewResult r, EvaluateView(spec));
    results.push_back(std::move(r));
  }
  std::sort(results.begin(), results.end(),
            [](const ViewResult& a, const ViewResult& b) {
              if (a.utility != b.utility) return a.utility > b.utility;
              return a.spec.ToString() < b.spec.ToString();
            });
  if (results.size() > k) results.resize(k);

  if (stats != nullptr) {
    stats->views_enumerated = views.size();
    stats->views_pruned = views.size() - survivors.size();
    stats->full_evaluations = survivors.size();
    stats->sample_rows = sample.size();
    stats->total_rows = data_.num_rows();
  }
  return results;
}

relational::Table SeeDb::ResultToTable(const ViewResult& result) {
  relational::Table out{Schema({Field("group", DataType::kString),
                                Field("target", DataType::kDouble),
                                Field("reference", DataType::kDouble)})};
  for (size_t i = 0; i < result.distribution.groups.size(); ++i) {
    out.AppendUnchecked({Value(result.distribution.groups[i]),
                         Value(result.distribution.target[i]),
                         Value(result.distribution.reference[i])});
  }
  return out;
}

}  // namespace bigdawg::seedb
