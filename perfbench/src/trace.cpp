#include "trace.h"

#include <iomanip>
#include <map>
#include <ostream>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int Tracer::begin(std::string name, int session) {
  if (!enabled_) {
    return -1;
  }
  SpanRecord span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.session = session;
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  // Spans are strictly nested (RAII on one thread), so `index` is the
  // innermost open span.
  open_.pop_back();
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.session
        << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

std::vector<Tracer::LayerRow> Tracer::self_time_by_layer() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    LayerRow& row = rows[layer];
    row.layer = layer;
    ++row.spans;
    row.self_ms += (s.end_us - s.start_us - child_us[i]) / 1000.0;
  }
  std::vector<LayerRow> out;
  for (auto& [layer, row] : rows) {
    out.push_back(row);
  }
  return out;
}

}  // namespace perfbench
