#include "qsc/eval/suites.h"

#include "qsc/graph/datasets.h"
#include "qsc/lp/generators.h"
#include "qsc/util/random.h"

namespace qsc {
namespace eval {

std::vector<NamedGraph> GeneralGraphSuite() {
  std::vector<NamedGraph> out;
  out.push_back({"karate", "Karate", KarateClub(), /*real=*/true});
  {
    Rng rng(101);
    // Route multiplicities are small integers; large weight noise would
    // drown the degree structure the coloring exploits.
    out.push_back({"openflights-sim", "OpenFlights",
                   WeightedHubGraph(3400, 6, 3, rng), false});
  }
  {
    Rng rng(102);
    out.push_back({"dblp-sim", "Dblp", BarabasiAlbert(30000, 3, rng), false});
  }
  return out;
}

std::vector<NamedGraph> CentralityGraphSuite() {
  struct Spec {
    const char* name;
    const char* paper;
    NodeId nodes;
    int64_t edges;
    double gamma;
    uint64_t seed;
  };
  // Paper sizes (scaled ~1/4 for the single-core exact baselines):
  // Astrophysics 18.7k/198k, Facebook 22.5k/171k, Deezer 28k/93k,
  // Enron 37k/184k, Epinions 76k/509k.
  static constexpr Spec kSpecs[] = {
      {"astroph-sim", "Astrophysics", 4500, 48000, 2.8, 201},
      {"facebook-sim", "Facebook", 5500, 42000, 2.7, 202},
      {"deezer-sim", "Deezer", 7000, 23000, 2.9, 203},
      {"enron-sim", "Enron", 9000, 45000, 2.5, 204},
      {"epinions-sim", "Epinions", 12000, 80000, 2.3, 205},
  };
  std::vector<NamedGraph> out;
  for (const Spec& s : kSpecs) {
    Rng rng(s.seed);
    out.push_back(
        {s.name, s.paper, PowerLawGraph(s.nodes, s.edges, s.gamma, rng),
         false});
  }
  return out;
}

std::vector<NamedFlow> FlowSuite() {
  struct Spec {
    const char* name;
    const char* paper;
    int32_t width;
    int32_t height;
    int32_t objects;
    uint64_t seed;
  };
  // Paper instances are 110k-3.5M node vision grids (stereo and cell
  // segmentation); the stand-ins keep the per-pixel terminal + smoothness
  // structure at 10k-70k pixels.
  static constexpr Spec kSpecs[] = {
      {"tsukuba0-sim", "Tsukuba0", 150, 75, 3, 301},
      {"tsukuba2-sim", "Tsukuba2", 150, 75, 3, 302},
      {"venus0-sim", "Venus0", 200, 95, 4, 303},
      {"venus1-sim", "Venus1", 200, 95, 4, 304},
      {"sawtooth0-sim", "Sawtooth0", 200, 90, 3, 305},
      {"sawtooth1-sim", "Sawtooth1", 200, 90, 3, 306},
      {"simcells-sim", "SimCells", 300, 130, 8, 307},
      {"cells-sim", "Cells", 400, 170, 12, 308},
  };
  std::vector<NamedFlow> out;
  for (const Spec& s : kSpecs) {
    Rng rng(s.seed);
    out.push_back({s.name, s.paper,
                   SegmentationGridNetwork(s.width, s.height, s.objects,
                                           rng)});
  }
  return out;
}

std::vector<NamedLp> LpSuite() {
  std::vector<NamedLp> out;
  out.push_back({"qap15-sim", "qap15", MakeQapLikeLp(14, 401)});
  out.push_back({"nug08-sim", "nug08-3rd", MakeNugentLikeLp(13, 402)});
  out.push_back(
      {"support-sim", "supportcase10", MakeWideSupportLp(12, 403)});
  out.push_back({"ex10-sim", "ex10", MakeTallLp(9, 404)});
  return out;
}

}  // namespace eval
}  // namespace qsc
