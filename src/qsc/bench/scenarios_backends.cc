// The "backends" scenario group: every registered compression backend
// refined over one shared instance, emitting a small Pareto front (colors
// reached vs. max q-error at each budget rung) per backend, as counters
// and as the scenario's detail table. The counters pin each kernel's
// split decisions — a kernel change that moves any partition shows up as
// a baseline diff — while the timing tracks the aggregate cost of the
// sweep.

#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qsc/bench/scenario.h"
#include "qsc/coloring/backend.h"
#include "qsc/coloring/q_error.h"
#include "qsc/graph/generators.h"
#include "qsc/util/random.h"
#include "qsc/util/table.h"

namespace qsc {
namespace bench {
namespace {

constexpr uint64_t kBackendInstanceSalt = 0x9a20;

// Color-budget rungs of the Pareto sweep (paper Figure 4 style).
const ColorId kBudgets[] = {16, 32, 64};

void RegisterParetoBa10k() {
  Scenario::Info info;
  info.name = "backends/pareto-ba-10k";
  info.group = "backends";
  info.description =
      "all registered coloring backends swept over color budgets "
      "{16,32,64} on a 10k-node Barabasi-Albert graph; per-backend "
      "colors/q-error Pareto counters";
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ kBackendInstanceSalt);
        const Graph g = BarabasiAlbert(10000, 3, rng);

        const ColoringBackendRegistry& registry =
            ColoringBackendRegistry::Global();
        const std::vector<std::string> names = registry.Names();

        ScenarioResult r;
        r.params = {{"nodes", static_cast<double>(g.num_nodes())},
                    {"arcs", static_cast<double>(g.num_arcs())},
                    {"budget_rungs",
                     static_cast<double>(std::size(kBudgets))}};
        r.table_header = {"backend", "budget", "colors", "max q"};
        r.timing = MeasureSeconds(ctx.measure, [&] {
          r.counters.clear();
          r.table_rows.clear();
          for (const std::string& name : names) {
            ColoringParams params;
            std::unique_ptr<ColoringBackend> backend =
                registry.Create(name, g, Partition::Trivial(g.num_nodes()),
                                params);
            for (const ColorId budget : kBudgets) {
              while (backend->partition().num_colors() < budget &&
                     backend->Step(budget)) {
              }
              const ColorId colors = backend->partition().num_colors();
              const double max_q = ComputeQError(g, backend->partition()).max_q;
              r.counters.emplace_back(
                  name + "_colors_" + std::to_string(budget),
                  static_cast<double>(colors));
              r.counters.emplace_back(
                  name + "_max_q_" + std::to_string(budget), max_q);
              r.table_rows.push_back({name, std::to_string(budget),
                                      std::to_string(colors),
                                      FormatDouble(max_q, 3)});
            }
          }
        });
        return r;
      }));
}

}  // namespace

void RegisterBackendScenarios() { RegisterParetoBa10k(); }

}  // namespace bench
}  // namespace qsc
