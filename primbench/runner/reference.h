// Independent reference for served answers: PRIM's Eq. 11 (distance-bin
// hyperplane projection) and Eq. 12 (DistMult over the projected rows)
// evaluated in double precision from a checkpoint's tensors, a haversine of
// its own, and a brute-force radius scan for TOPK. Checks return an empty
// string when the served line is right and a description otherwise.
#ifndef PRIMBENCH_RUNNER_REFERENCE_H_
#define PRIMBENCH_RUNNER_REFERENCE_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "core/prim_index.h"
#include "geo/point.h"

namespace primbench {

double ReferenceHaversineKm(const prim::geo::GeoPoint& a,
                            const prim::geo::GeoPoint& b);

/// A parsed TOPK entry.
struct TopKEntry {
  int id = -1;
  std::string relation;
  double score = 0.0;
  double dist_km = 0.0;
};
/// Parses "OK <n> id,rel,score,dist ..."; false on any framing error.
bool ParseTopK(const std::string& line, std::vector<TopKEntry>* out);

class ReferenceScorer {
 public:
  /// Copies what it needs out of `index`, so the index may be a view over
  /// memory that goes away afterwards.
  ReferenceScorer(const prim::core::PrimIndex& index,
                  std::vector<prim::geo::GeoPoint> points,
                  std::vector<std::string> relation_names);

  int num_nodes() const { return num_nodes_; }
  int phi() const { return num_classes_ - 1; }
  const std::string& ClassName(int c) const { return class_names_[c]; }
  /// Class id of a served relation name, -1 if unknown.
  int ClassOf(const std::string& name) const;
  double DistanceKm(int i, int j) const;
  const prim::geo::GeoPoint& point(int i) const { return points_[i]; }

  /// The answer for (i, j): the argmax class, and every class whose score is
  /// within float-rounding reach of it (a near-tie, where either answer is
  /// right; this also covers pairs whose distance sits on a bin edge).
  struct Answer {
    int best = 0;
    std::vector<int> acceptable;  // Always holds `best`.
    std::vector<double> scores;   // Per class, at the pair's own bin.
    double tolerance = 0.0;       // Allowed |served - reference| score gap.
    bool exact_bin = true;        // False when the distance sits on a bin edge.
    bool Accepts(int c) const;
  };
  Answer Classify(int i, int j) const;

  /// Checks a CLASSIFY response line for (i, j).
  std::string CheckClassify(int i, int j, const std::string& line) const;
  /// Checks a TOPK response for (i, radius_km, k) against a scan of every
  /// POI not in `dead`.
  std::string CheckTopK(int i, double radius_km, int k,
                        const std::string& line,
                        const std::unordered_set<int>& dead = {}) const;

 private:
  void Scores(int i, int j, int bin, std::vector<double>* out,
              double* magnitude) const;

  prim::core::PrimConfig config_;
  int num_nodes_ = 0;
  int num_classes_ = 0;
  int dim_ = 0;
  std::vector<double> embeddings_;
  std::vector<double> relations_;
  std::vector<double> hyperplanes_;
  std::vector<prim::geo::GeoPoint> points_;
  std::vector<std::string> class_names_;
};

}  // namespace primbench

#endif  // PRIMBENCH_RUNNER_REFERENCE_H_
