// Minimal streaming JSON writer. qsc_bench's BENCH_*.json reports and the
// serving benchmark's run records are written with it; it guarantees two
// properties those consumers rely on: output is always well-formed JSON,
// and a given double renders to the same text on every run (shortest
// round-trippable form), so equal metrics compare equal as strings.

#ifndef QSC_EVAL_JSON_H_
#define QSC_EVAL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qsc {
namespace eval {

// Escapes `s` for inclusion inside a JSON string literal (quotes excluded).
std::string JsonEscape(std::string_view s);

// Renders a double deterministically: shortest decimal form that
// round-trips ("%.17g" tightened), with NaN and infinities mapped to null
// (JSON has no encoding for them).
std::string JsonNumber(double value);

// Stack-based writer. Usage:
//
//   JsonWriter w;
//   w.BeginObject();
//   w.Key("seed"); w.Value(uint64_t{42});
//   w.Key("runs"); w.BeginArray(); ... w.EndArray();
//   w.EndObject();
//   puts(w.str().c_str());
//
// Commas and (optional) indentation are inserted automatically. Structure
// errors (value without key inside an object, unbalanced End) abort via
// QSC_CHECK — emitting malformed JSON is a bug, not a data error.
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty = false);

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  void Key(std::string_view key);

  void Value(std::string_view value);
  void Value(const char* value) { Value(std::string_view(value)); }
  void Value(double value);
  void Value(int64_t value);
  void Value(uint64_t value);
  void Value(int32_t value) { Value(static_cast<int64_t>(value)); }
  void Value(bool value);
  void Null();

  // Convenience: Key() + Value().
  template <typename T>
  void KV(std::string_view key, T value) {
    Key(key);
    Value(value);
  }

  // The serialized document; valid once all containers are closed.
  const std::string& str() const;

 private:
  enum class Frame { kObject, kArray };

  void BeforeValue();
  void Indent();

  bool pretty_;
  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;
  bool key_pending_ = false;
};

}  // namespace eval
}  // namespace qsc

#endif  // QSC_EVAL_JSON_H_
