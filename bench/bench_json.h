// Tiny JSON emitter for the BENCH_*.json layout.
//
// Every bench writes the same shape: a top-level object with one
// `  "key": value` entry per line, whose values are one-line
// `{"k": v, ...}` objects, arrays of such rows (one row per line), or
// indented blocks. Each number carries its own printf precision, so a
// rerun of a seed-deterministic bench is byte-identical. Keys and strings
// are bench-internal identifiers and are written verbatim (no escaping).
#ifndef LEAP_BENCH_BENCH_JSON_H_
#define LEAP_BENCH_BENCH_JSON_H_

#include <concepts>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace leap {
namespace bench {

inline std::string JsonStr(std::string_view s) {
  std::string out(1, '"');
  out += s;
  return out += '"';
}

// `items` between `open` and `close`, one per line at nesting depth
// `depth` (two spaces per level); the closing bracket lines up with the
// key that holds the value.
inline std::string JsonLines(const std::vector<std::string>& items,
                             int depth, const char* open, const char* close) {
  const std::string inner(2 * depth + 2, ' ');
  std::string out = open;
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n") + inner + items[i];
  }
  return out + "\n" + std::string(2 * depth, ' ') + close;
}

// Rows of a top-level array, one per line: "[\n    row,\n    row\n  ]".
inline std::string JsonRows(const std::vector<std::string>& rows) {
  return JsonLines(rows, 1, "[", "]");
}

// An object built key by key, in insertion order.
class JsonObject {
 public:
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonObject& Int(std::string_view key, T v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Num(std::string_view key, double v, int precision) {
    const int n = std::snprintf(nullptr, 0, "%.*f", precision, v);
    std::string text(static_cast<size_t>(n), '\0');
    std::snprintf(text.data(), text.size() + 1, "%.*f", precision, v);
    return Raw(key, text);
  }
  JsonObject& Str(std::string_view key, std::string_view v) {
    return Raw(key, JsonStr(v));
  }
  JsonObject& Bool(std::string_view key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  // Nested one-line object.
  JsonObject& Obj(std::string_view key, const JsonObject& v) {
    return Raw(key, v.Line());
  }
  // A value already rendered as JSON: an array, a block, null.
  JsonObject& Raw(std::string_view key, std::string_view json) {
    entries_.push_back(JsonStr(key) + ": " + std::string(json));
    return *this;
  }

  // The `"key": value` entries joined by `sep`, without braces.
  std::string Join(std::string_view sep) const {
    std::string out;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) {
        out += sep;
      }
      out += entries_[i];
    }
    return out;
  }
  // {"k": v, "k2": v2}
  std::string Line() const {
    std::string out(1, '{');
    out += Join(", ");
    return out += '}';
  }
  // One entry per line at nesting depth `depth`; Block(0) is a document.
  std::string Block(int depth) const {
    return JsonLines(entries_, depth, "{", "}");
  }

 private:
  std::vector<std::string> entries_;
};

// Writes `doc` as a top-level document. Reports the outcome on stdout
// ("wrote <path>") or stderr ("cannot write <path>"); false means the
// file is missing or incomplete and the bench must exit nonzero.
[[nodiscard]] inline bool WriteJsonFile(const std::string& path,
                                        const JsonObject& doc) {
  FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    const std::string text = doc.Block(0) + "\n";
    ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace bench
}  // namespace leap

#endif  // LEAP_BENCH_BENCH_JSON_H_
