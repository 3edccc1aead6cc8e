#include "qsc/coloring/backend.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "qsc/coloring/lp_rounding.h"
#include "qsc/coloring/rothko.h"
#include "qsc/util/check.h"

namespace qsc {
namespace {

bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool IsNameChar(char c, bool first) {
  const bool alnum = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  return first ? alnum : alnum || c == '_' || c == '-';
}

// The `bucket` split rule (a SplitRule, coloring/rothko.h): degree
// bucketing, the cheap structure-oblivious baseline (Slim Graph's simplest
// kernel class) that any quality-claims plot must beat. The witness only
// picks which color to cut; the cut ignores the witness weights, ranks the
// members by total weighted degree (ties by node id) and peels the upper
// half of the ranks. For undirected graphs OutWeight == InWeight, so the
// sum double-counts uniformly and ranks are unaffected.
void DegreeMedianSplit(const GraphView& g, const std::vector<NodeId>& members,
                       const std::vector<double>& /*values*/,
                       std::vector<NodeId>* eject) {
  std::vector<NodeId> ranked = members;
  std::sort(ranked.begin(), ranked.end(), [&g](NodeId a, NodeId b) {
    const double da = g.OutWeight(a) + g.InWeight(a);
    const double db = g.OutWeight(b) + g.InWeight(b);
    if (da != db) return da < db;
    return a < b;
  });
  // With >= 2 members both halves are non-empty.
  eject->assign(ranked.begin() + ranked.size() / 2, ranked.end());
}

// The factory of a backend that is the Rothko engine with `rule`.
ColoringBackendFactory RothkoWithRule(SplitRule rule) {
  return [rule](const GraphView& g, Partition initial,
                const ColoringParams& params) {
    RothkoOptions options;
    static_cast<ColoringParams&>(options) = params;
    return std::unique_ptr<ColoringBackend>(
        new RothkoRefiner(g, std::move(initial), options, rule));
  };
}

}  // namespace

StatusOr<std::string> CanonicalBackendName(const std::string& name) {
  size_t begin = 0;
  size_t end = name.size();
  while (begin < end && IsAsciiSpace(name[begin])) ++begin;
  while (end > begin && IsAsciiSpace(name[end - 1])) --end;
  if (begin == end) return std::string(kDefaultColoringBackend);

  std::string canonical;
  canonical.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    canonical.push_back(AsciiLower(name[i]));
  }
  constexpr size_t kMaxLen = 64;
  if (canonical.size() > kMaxLen) {
    return Status::InvalidArgument("backend name longer than 64 characters");
  }
  for (size_t i = 0; i < canonical.size(); ++i) {
    if (!IsNameChar(canonical[i], /*first=*/i == 0)) {
      return Status::InvalidArgument(
          "malformed backend name \"" + canonical +
          "\": must match [a-z0-9][a-z0-9_-]*");
    }
  }
  return canonical;
}

class ColoringBackendRegistry::Impl {
 public:
  struct Entry {
    std::string description;
    ColoringBackendFactory factory;
  };

  // std::map keeps Names() sorted for free.
  mutable std::shared_mutex mutex;
  std::map<std::string, Entry> entries;
};

ColoringBackendRegistry::Impl* ColoringBackendRegistry::impl() const {
  static Impl* impl = new Impl();  // leaked: registry lives forever
  return impl;
}

ColoringBackendRegistry& ColoringBackendRegistry::Global() {
  static ColoringBackendRegistry* global = [] {
    auto* registry = new ColoringBackendRegistry();
    registry->Register(
        "rothko",
        "paper Algorithm 1: size-weighted worst-witness splits at the mean",
        RothkoWithRule(nullptr));
    registry->Register(
        "lp-rounding",
        "witness splits as assignment LPs solved by simplex, then rounded",
        RothkoWithRule(&LpRoundingSplit));
    registry->Register(
        "bucket",
        "weighted-degree bucketing at the median rank (cheap baseline)",
        RothkoWithRule(&DegreeMedianSplit));
    return registry;
  }();
  return *global;
}

void ColoringBackendRegistry::Register(std::string name,
                                       std::string description,
                                       ColoringBackendFactory factory) {
  QSC_CHECK(factory != nullptr);
  const StatusOr<std::string> canonical = CanonicalBackendName(name);
  QSC_CHECK(canonical.ok());
  QSC_CHECK(*canonical == name);  // registration names must be canonical
  Impl* i = impl();
  std::unique_lock lock(i->mutex);
  const auto [it, inserted] = i->entries.try_emplace(
      std::move(name),
      Impl::Entry{std::move(description), std::move(factory)});
  QSC_CHECK(inserted);  // duplicate backend registration
  (void)it;
}

bool ColoringBackendRegistry::Contains(
    const std::string& canonical_name) const {
  Impl* i = impl();
  std::shared_lock lock(i->mutex);
  return i->entries.count(canonical_name) > 0;
}

std::unique_ptr<ColoringBackend> ColoringBackendRegistry::Create(
    const std::string& canonical_name, const GraphView& g, Partition initial,
    const ColoringParams& params) const {
  ColoringBackendFactory factory;
  {
    Impl* i = impl();
    std::shared_lock lock(i->mutex);
    const auto it = i->entries.find(canonical_name);
    QSC_CHECK(it != i->entries.end());  // boundary validates first
    factory = it->second.factory;
  }
  return factory(g, std::move(initial), params);
}

std::vector<std::string> ColoringBackendRegistry::Names() const {
  Impl* i = impl();
  std::shared_lock lock(i->mutex);
  std::vector<std::string> names;
  names.reserve(i->entries.size());
  for (const auto& [name, entry] : i->entries) names.push_back(name);
  return names;
}

std::string ColoringBackendRegistry::Description(
    const std::string& canonical_name) const {
  Impl* i = impl();
  std::shared_lock lock(i->mutex);
  const auto it = i->entries.find(canonical_name);
  return it == i->entries.end() ? std::string() : it->second.description;
}

}  // namespace qsc
