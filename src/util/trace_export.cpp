#include "util/trace_export.hpp"

#include <cinttypes>
#include <cstdio>

namespace psmn {

void JsonWriter::separate() {
  if (needComma_.back()) os_ << ',';
  needComma_.back() = true;
}

void JsonWriter::writeEscaped(std::string_view s) {
  os_ << '"';
  for (char c : s) {
    switch (c) {
      case '"': os_ << "\\\""; break;
      case '\\': os_ << "\\\\"; break;
      case '\n': os_ << "\\n"; break;
      case '\r': os_ << "\\r"; break;
      case '\t': os_ << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os_ << buf;
        } else {
          os_ << c;
        }
    }
  }
  os_ << '"';
}

void JsonWriter::beginObject() {
  separate();
  os_ << '{';
  needComma_.push_back(false);
}

void JsonWriter::endObject() {
  os_ << '}';
  needComma_.pop_back();
}

void JsonWriter::beginArray() {
  separate();
  os_ << '[';
  needComma_.push_back(false);
}

void JsonWriter::endArray() {
  os_ << ']';
  needComma_.pop_back();
}

void JsonWriter::key(std::string_view k) {
  separate();
  writeEscaped(k);
  os_ << ':';
  // The value that follows must not emit its own separator.
  needComma_.back() = false;
}

void JsonWriter::value(std::string_view s) {
  separate();
  writeEscaped(s);
}

void JsonWriter::value(uint64_t v) {
  separate();
  os_ << v;
}

void JsonWriter::value(int64_t v) {
  separate();
  os_ << v;
}

void JsonWriter::value(double v) {
  separate();
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os_ << buf;
}

void JsonWriter::value(bool v) {
  separate();
  os_ << (v ? "true" : "false");
}

void writeChromeTrace(std::ostream& os, const TelemetryRegistry& reg) {
  JsonWriter w(os);
  w.beginObject();
  w.field("displayTimeUnit", std::string_view("ns"));
  w.key("traceEvents");
  w.beginArray();
  for (const TraceEvent& ev : reg.events()) {
    w.beginObject();
    w.field("name", std::string_view(ev.name));
    w.field("cat", std::string_view(phaseName(ev.phase)));
    w.field("ph", std::string_view("X"));
    // Trace-event timestamps are in microseconds; keep ns precision as a
    // fractional part.
    w.field("ts", static_cast<double>(ev.startNs) / 1000.0);
    w.field("dur", static_cast<double>(ev.durNs) / 1000.0);
    w.field("pid", uint64_t{0});
    w.field("tid", uint64_t{ev.slot});
    if (!ev.arg.empty()) {
      w.key("args");
      w.beginObject();
      w.field("label", std::string_view(ev.arg));
      w.endObject();
    }
    w.endObject();
  }
  w.endArray();
  w.endObject();
  os << '\n';
}

void writeRegistrySections(JsonWriter& w, const TelemetryRegistry& reg) {
  const TelemetryRegistry::Totals t = reg.totals();
  w.key("counters");
  w.beginObject();
  for (size_t i = 0; i < kNumCounters; ++i)
    w.field(counterName(static_cast<Counter>(i)), t.counters[i]);
  w.endObject();
  w.key("phase_ns");
  w.beginObject();
  for (size_t i = 0; i < kNumPhases; ++i)
    w.field(phaseName(static_cast<Phase>(i)), t.phaseNs[i]);
  w.endObject();
}

void writeSolveStats(JsonWriter& w, const SolveStats& s) {
  w.beginObject();
  w.field("newton_iterations", s.newtonIterations);
  w.field("steps", s.steps);
  w.field("factorizations", s.factorizations);
  w.field("refactorizations", s.refactorizations);
  w.field("solves", s.solves);
  w.field("evals", s.evals);
  w.field("factor_nnz", s.factorNnz);
  w.field("predicted_steps", s.predictedSteps);
  w.field("predictor_retries", s.predictorRetries);
  w.endObject();
}

}  // namespace psmn
