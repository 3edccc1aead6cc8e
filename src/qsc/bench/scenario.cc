#include "qsc/bench/scenario.h"

#include <algorithm>

#include "qsc/api/hashing.h"
#include "qsc/graph/graph.h"
#include "qsc/util/check.h"

namespace qsc {
namespace bench {

ScenarioResult Scenario::Run(const BenchContext& context) const {
  const double peak_before = PeakRssMib();
  ScenarioResult result = run_(context);
  result.timing.peak_rss_mib = std::max(0.0, PeakRssMib() - peak_before);
  result.name = info_.name;
  result.group = info_.group;
  return result;
}

ScenarioRegistry& ScenarioRegistry::Global() {
  static ScenarioRegistry* registry = new ScenarioRegistry();
  return *registry;
}

void ScenarioRegistry::Register(Scenario scenario) {
  QSC_CHECK(Find(scenario.name()) == nullptr);  // names must be unique
  scenarios_.push_back(std::make_unique<Scenario>(std::move(scenario)));
}

const Scenario* ScenarioRegistry::Find(const std::string& name) const {
  for (const auto& s : scenarios_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

std::vector<const Scenario*> ScenarioRegistry::List() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(s.get());
  std::sort(out.begin(), out.end(),
            [](const Scenario* a, const Scenario* b) {
              return a->name() < b->name();
            });
  return out;
}

double ArcChecksum(const Graph& g) {
  uint64_t h = api_internal::kFnvOffsetBasis;
  for (const EdgeTriple& a : g.Arcs()) {
    h = api_internal::HashMixWord(
        h, (static_cast<uint64_t>(a.src) << 32) | static_cast<uint32_t>(a.dst));
    h = api_internal::HashMixDouble(h, a.weight);
  }
  return static_cast<double>(h & ((uint64_t{1} << 48) - 1));
}

}  // namespace bench
}  // namespace qsc
