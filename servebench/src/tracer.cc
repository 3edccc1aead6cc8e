#include "tracer.h"

#include <cstdio>
#include <memory>

#include "qsc/eval/json.h"

namespace servebench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.op_id = tracer_->op_id_;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  // Read the clock last, so the bookkeeping above is not inside the span.
  tracer_->spans_[index_].start_ns = tracer_->NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = tracer_->NowNs();
  tracer_->open_.pop_back();
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals(
    bool loop_only) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ms[span.parent] += span.Millis();
  }
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (loop_only && span.op_id < 0) continue;
    NameTotals& t = totals[span.name];
    ++t.count;
    t.total_ms += span.Millis();
    t.self_ms += span.Millis() - child_ms[i];
  }
  return totals;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  qsc::eval::JsonWriter w;
  w.BeginObject();
  w.KV("displayTimeUnit", "ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    w.BeginObject();
    w.KV("name", span.name);
    w.KV("cat", span.op_id < 0 ? "setup" : "loop");
    w.KV("ph", "X");
    w.KV("ts", span.start_ns * 1e-3);
    w.KV("dur", (span.end_ns - span.start_ns) * 1e-3);
    w.KV("pid", int64_t{1});
    w.KV("tid", int64_t{1});
    w.Key("args");
    w.BeginObject();
    w.KV("op", span.op_id);
    w.KV("span", static_cast<int64_t>(i));
    w.KV("parent", static_cast<int64_t>(span.parent));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
  if (file == nullptr) return false;
  const std::string& text = w.str();
  return std::fwrite(text.data(), 1, text.size(), file.get()) == text.size();
}

}  // namespace servebench
