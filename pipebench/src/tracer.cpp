#include "tracer.hpp"

#include <cstdio>

namespace pipebench {

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, const char* layer) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  index_ = static_cast<int>(tracer.spans_.size());
  tracer.spans_.push_back(Span{name, layer, tracer.now(), 0.0, tracer.open_});
  tracer.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end = tracer_->now();
  tracer_->open_ = span.parent;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) by_layer[spans_[i].layer] += self[i];
  return by_layer;
}

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":\"" + s.name + "\",\"cat\":\"" + s.layer + "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1",
                  s.start * 1e6, (s.end - s.start) * 1e6);
    out += buf;
    out += ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + "}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace pipebench
