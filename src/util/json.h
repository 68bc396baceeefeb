// Minimal JSON object builder: appends comma-separated "key": value pairs.
//
// Shared by the core report renderers and the obs postmortem bundles so both emit the
// same deterministic number formats (%.9g doubles, exact integers). Keys are literals;
// string values go through AppendJsonEscaped, the one string escaper every JSON writer
// in the tree (reports, bundles, Tracer and FlightRecorder traces) uses.

#ifndef TCS_SRC_UTIL_JSON_H_
#define TCS_SRC_UTIL_JSON_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace tcs {

// Appends `s` as the inside of a JSON string literal: quotes and backslashes are
// backslash-escaped, control characters become \u00XX, every other byte is copied.
inline void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
}

class JsonObject {
 public:
  void Str(const char* key, const std::string& value) {
    Key(key);
    out_ += '"';
    AppendJsonEscaped(out_, value);
    out_ += '"';
  }

  void Int(const char* key, int64_t value) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, value);
    out_ += buf;
  }

  void UInt(const char* key, uint64_t value) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out_ += buf;
  }

  void Bool(const char* key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
  }

  void Double(const char* key, double value) {
    Key(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    out_ += buf;
  }

  void Raw(const char* key, const std::string& json) {
    Key(key);
    out_ += json;
  }

  std::string Finish() { return "{" + out_ + "}"; }

 private:
  void Key(const char* key) {
    if (!out_.empty()) {
      out_ += ',';
    }
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  std::string out_;
};

}  // namespace tcs

#endif  // TCS_SRC_UTIL_JSON_H_
