// Named instance suites: the stand-ins for the paper's Table 2/3 datasets
// (see DESIGN.md §3), generated at their canonical seeds. qsc_bench's
// paper/ scenarios draw their instances from here so the experiment index
// stays consistent; the smaller seeded instances of the check/ scenarios
// live in their own table (bench/scenarios_check.cc).

#ifndef QSC_EVAL_SUITES_H_
#define QSC_EVAL_SUITES_H_

#include <string>
#include <vector>

#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/model.h"

namespace qsc {
namespace eval {

struct NamedGraph {
  std::string name;        // stand-in name (paper dataset it models)
  std::string paper_name;  // dataset in the paper's Table 2
  Graph graph;
  bool real = false;  // true only for the embedded karate club
};

// The "General evaluation" block of Table 2: Karate (real), OpenFlights
// and DBLP stand-ins.
std::vector<NamedGraph> GeneralGraphSuite();

// The "Centrality" block of Table 2: Astrophysics, Facebook, Deezer,
// Enron, Epinions stand-ins (power-law graphs with matched density).
std::vector<NamedGraph> CentralityGraphSuite();

struct NamedFlow {
  std::string name;
  std::string paper_name;
  FlowInstance instance;
};

// The "Maximum-flow" block of Table 2: vision-style grid networks standing
// in for Tsukuba/Venus/Sawtooth/SimCells/Cells.
std::vector<NamedFlow> FlowSuite();

struct NamedLp {
  std::string name;
  std::string paper_name;
  LpProblem lp;
};

// Table 3: qap15, nug08-3rd, supportcase10, ex10 stand-ins.
std::vector<NamedLp> LpSuite();

}  // namespace eval
}  // namespace qsc

#endif  // QSC_EVAL_SUITES_H_
