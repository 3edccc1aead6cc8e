// A scenario that always reports one invariant violation, linked into a
// copy of the qsc_bench front-end so a CTest case can check that a failing
// scenario makes the run exit 1 after its report is written.

#include <utility>

#include "qsc/bench/scenario.h"

namespace qsc {
namespace bench {
namespace {

[[maybe_unused]] const bool kRegistered = [] {
  Scenario::Info info;
  info.name = "test/always-violates";
  info.group = "test";
  info.description = "reports one planted invariant violation";
  ScenarioRegistry::Global().Register(
      Scenario(std::move(info), [](const BenchContext& ctx) {
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [] {});
        r.counters = {{"checks", 1.0}, {"violations", 1.0}};
        r.failures = {"[test/planted] this scenario always fails"};
        return r;
      }));
  return true;
}();

}  // namespace
}  // namespace bench
}  // namespace qsc
