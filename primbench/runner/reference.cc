#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace primbench {

double ReferenceHaversineKm(const prim::geo::GeoPoint& a,
                            const prim::geo::GeoPoint& b) {
  constexpr double kEarthRadiusKm = 6371.0088;
  constexpr double kRad = M_PI / 180.0;
  const double dlat = (b.lat - a.lat) * kRad;
  const double dlon = (b.lon - a.lon) * kRad;
  const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(a.lat * kRad) * std::cos(b.lat * kRad) *
                       std::sin(dlon / 2) * std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

bool ParseTopK(const std::string& line, std::vector<TopKEntry>* out) {
  out->clear();
  std::istringstream in(line);
  std::string ok;
  int n = -1;
  if (!(in >> ok >> n) || ok != "OK" || n < 0) return false;
  std::string token;
  while (in >> token) {
    TopKEntry e;
    std::string fields[4];
    std::istringstream parts(token);
    for (std::string& f : fields)
      if (!std::getline(parts, f, ',')) return false;
    char* end = nullptr;
    e.id = static_cast<int>(std::strtol(fields[0].c_str(), &end, 10));
    if (*end != '\0') return false;
    e.relation = fields[1];
    e.score = std::strtod(fields[2].c_str(), &end);
    if (*end != '\0') return false;
    e.dist_km = std::strtod(fields[3].c_str(), &end);
    if (*end != '\0') return false;
    out->push_back(e);
  }
  return static_cast<int>(out->size()) == n;
}

ReferenceScorer::ReferenceScorer(const prim::core::PrimIndex& index,
                                 std::vector<prim::geo::GeoPoint> points,
                                 std::vector<std::string> relation_names)
    : config_(index.config()),
      num_nodes_(index.num_nodes()),
      num_classes_(index.num_classes()),
      dim_(index.dim()),
      embeddings_(index.embeddings_data(),
                  index.embeddings_data() +
                      static_cast<size_t>(index.num_nodes()) * index.dim()),
      relations_(index.relations_data(),
                 index.relations_data() +
                     static_cast<size_t>(index.num_classes()) * index.dim()),
      hyperplanes_(index.hyperplanes_data(),
                   index.hyperplanes_data() +
                       static_cast<size_t>(index.config().num_bins()) *
                           index.dim()),
      points_(std::move(points)),
      class_names_(std::move(relation_names)) {
  class_names_.resize(static_cast<size_t>(num_classes_ - 1));
  class_names_.push_back("none");
}

int ReferenceScorer::ClassOf(const std::string& name) const {
  for (int c = 0; c < num_classes_; ++c)
    if (class_names_[c] == name) return c;
  return -1;
}

double ReferenceScorer::DistanceKm(int i, int j) const {
  return ReferenceHaversineKm(points_[i], points_[j]);
}

void ReferenceScorer::Scores(int i, int j, int bin, std::vector<double>* out,
                             double* magnitude) const {
  const double* hi = &embeddings_[static_cast<size_t>(i) * dim_];
  const double* hj = &embeddings_[static_cast<size_t>(j) * dim_];
  const double* w = &hyperplanes_[static_cast<size_t>(bin) * dim_];
  // Eq. 11: remove each row's component along the bin's unit normal.
  double si = 0.0, sj = 0.0;
  for (int d = 0; d < dim_; ++d) {
    si += hi[d] * w[d];
    sj += hj[d] * w[d];
  }
  std::vector<double> pi(dim_), pj(dim_);
  for (int d = 0; d < dim_; ++d) {
    pi[d] = hi[d] - si * w[d];
    pj[d] = hj[d] - sj * w[d];
  }
  // Eq. 12: DistMult against each projected relation row.
  out->assign(num_classes_, 0.0);
  *magnitude = 0.0;
  for (int c = 0; c < num_classes_; ++c) {
    const double* r = &relations_[static_cast<size_t>(c) * dim_];
    double acc = 0.0, abs_acc = 0.0;
    for (int d = 0; d < dim_; ++d) {
      const double term = pi[d] * pj[d] * r[d];
      acc += term;
      abs_acc += std::fabs(term);
    }
    (*out)[c] = acc;
    *magnitude = std::max(*magnitude, abs_acc);
  }
}

bool ReferenceScorer::Answer::Accepts(int c) const {
  return std::find(acceptable.begin(), acceptable.end(), c) !=
         acceptable.end();
}

ReferenceScorer::Answer ReferenceScorer::Classify(int i, int j) const {
  const double dist = DistanceKm(i, j);
  // The server bins a float copy of the distance; a pair within rounding
  // reach of a bin edge may land in either bin.
  std::vector<int> bins;
  int bin = 0;
  const std::vector<float>& edges = config_.bin_edges_km;
  while (bin < static_cast<int>(edges.size()) && dist > edges[bin]) ++bin;
  bins.push_back(bin);
  if (bin > 0 && dist - edges[bin - 1] < 1e-5) bins.push_back(bin - 1);
  if (bin < static_cast<int>(edges.size()) && edges[bin] - dist < 1e-5)
    bins.push_back(bin + 1);

  Answer answer;
  answer.exact_bin = bins.size() == 1;
  for (size_t b = 0; b < bins.size(); ++b) {
    std::vector<double> scores;
    double magnitude = 0.0;
    Scores(i, j, bins[b], &scores, &magnitude);
    // Float accumulation over dim terms plus the 6-decimal rendering.
    const double tolerance = 1e-5 * magnitude + 2e-6;
    const int best = static_cast<int>(
        std::max_element(scores.begin(), scores.end()) - scores.begin());
    if (b == 0) {
      answer.best = best;
      answer.scores = scores;
      answer.tolerance = tolerance;
    }
    for (int c = 0; c < num_classes_; ++c)
      if (scores[c] >= scores[best] - 2 * tolerance && !answer.Accepts(c))
        answer.acceptable.push_back(c);
  }
  return answer;
}

namespace {

std::string Describe(const char* what, int i, int j, const std::string& line) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s for (%d, %d): ", what, i, j);
  return buf + line;
}

}  // namespace

std::string ReferenceScorer::CheckClassify(int i, int j,
                                           const std::string& line) const {
  std::istringstream in(line);
  std::string ok, rel, score_field, dist_field;
  if (!(in >> ok >> rel >> score_field >> dist_field) || ok != "OK" ||
      score_field.rfind("score=", 0) != 0 ||
      dist_field.rfind("dist_km=", 0) != 0)
    return Describe("malformed CLASSIFY answer", i, j, line);
  const double score = std::strtod(score_field.c_str() + 6, nullptr);
  const double dist = std::strtod(dist_field.c_str() + 8, nullptr);
  const int c = ClassOf(rel);
  if (c < 0) return Describe("unknown relation", i, j, line);
  if (std::fabs(dist - DistanceKm(i, j)) > 6e-4)
    return Describe("dist_km differs from the haversine", i, j, line);
  const Answer answer = Classify(i, j);
  if (!answer.Accepts(c))
    return Describe("relation differs from Eq. 11-12", i, j, line);
  // Near a bin edge the served score may come from the neighbouring bin;
  // the relation check above already covers that case.
  if (answer.exact_bin &&
      std::fabs(score - answer.scores[c]) > answer.tolerance)
    return Describe("score differs from Eq. 11-12", i, j, line);
  return "";
}

std::string ReferenceScorer::CheckTopK(int i, double radius_km, int k,
                                       const std::string& line,
                                       const std::unordered_set<int>& dead) const {
  std::vector<TopKEntry> served;
  if (!ParseTopK(line, &served))
    return Describe("malformed TOPK answer", i, k, line);
  if (static_cast<int>(served.size()) > k)
    return Describe("TOPK longer than k", i, k, line);

  // Brute-force scan. `definite` must be listed (score permitting);
  // `possible` may be listed (radius edge or a near-tie with phi).
  struct Candidate {
    int id;
    double score;
  };
  std::vector<Candidate> definite;
  std::unordered_set<int> possible;
  constexpr double kEdgeKm = 1e-9;
  for (int j = 0; j < num_nodes_; ++j) {
    if (j == i || dead.count(j) > 0) continue;
    const double dist = DistanceKm(i, j);
    if (dist > radius_km + kEdgeKm) continue;
    const Answer answer = Classify(i, j);
    const bool may_be_phi = answer.Accepts(phi());
    if (answer.best != phi() || answer.acceptable.size() > 1)
      possible.insert(j);
    if (!may_be_phi && dist < radius_km - kEdgeKm)
      definite.push_back({j, answer.scores[answer.best]});
  }

  std::unordered_set<int> listed;
  double previous = INFINITY;
  for (const TopKEntry& e : served) {
    if (e.id < 0 || e.id >= num_nodes_ || possible.count(e.id) == 0)
      return Describe("TOPK lists a POI the scan excludes", i, e.id, line);
    if (!listed.insert(e.id).second)
      return Describe("TOPK lists a POI twice", i, e.id, line);
    const int c = ClassOf(e.relation);
    const Answer answer = Classify(i, e.id);
    if (c < 0 || c == phi() || !answer.Accepts(c))
      return Describe("TOPK relation differs from Eq. 11-12", i, e.id, line);
    if (answer.exact_bin &&
        std::fabs(e.score - answer.scores[c]) > answer.tolerance)
      return Describe("TOPK score differs from Eq. 11-12", i, e.id, line);
    if (std::fabs(e.dist_km - DistanceKm(i, e.id)) > 6e-4)
      return Describe("TOPK dist_km differs from the haversine", i, e.id, line);
    if (e.score > previous + 2e-6)
      return Describe("TOPK not sorted by score", i, e.id, line);
    previous = e.score;
  }
  // Completeness: a definite candidate may be missing only when the list is
  // full and it scores no better than the last entry.
  for (const Candidate& cand : definite) {
    if (listed.count(cand.id) > 0) continue;
    const double tolerance = Classify(i, cand.id).tolerance;
    if (static_cast<int>(served.size()) < k || cand.score > previous + 2 * tolerance)
      return Describe("TOPK misses a POI the scan ranks in", i, cand.id, line);
  }
  return "";
}

}  // namespace primbench
