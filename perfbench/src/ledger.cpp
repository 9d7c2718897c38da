#include "ledger.hpp"

#include <cstdio>

namespace perfbench {

Ledger::Scope::Scope(Ledger& ledger, const char* name, int op)
    : ledger_(ledger) {
  if (!ledger_.enabled_) return;
  SpanRecord rec;
  rec.name = name;
  rec.start = cpuSeconds();
  rec.parent = ledger_.open_.empty() ? -1 : ledger_.open_.back();
  // Children inherit the op id of the span that caused them.
  rec.op = op >= 0 || rec.parent < 0
               ? op
               : ledger_.spans_[static_cast<std::size_t>(rec.parent)].op;
  index_ = static_cast<int>(ledger_.spans_.size());
  ledger_.spans_.push_back(std::move(rec));
  ledger_.open_.push_back(index_);
}

Ledger::Scope::~Scope() {
  if (index_ < 0) return;
  ledger_.spans_[static_cast<std::size_t>(index_)].end = cpuSeconds();
  ledger_.open_.pop_back();
}

void Ledger::count(const std::string& name, double v) {
  if (enabled_) counters_[name] += v;
}

double Ledger::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double Ledger::totalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) total += s.duration();
  }
  return total;
}

std::size_t Ledger::spanCount(const std::string& name) const {
  std::size_t n = 0;
  for (const SpanRecord& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

namespace {
std::string layerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}
}  // namespace

std::map<std::string, double> Ledger::selfSecondsByLayer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].duration();
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].duration();
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[layerOf(spans_[i].name)] += self[i];
  }
  return by_layer;
}

bool Ledger::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": "
                 "%.3f, \"parent\": %d, \"op\": %d}",
                 i == 0 ? "" : ",", s.name.c_str(), (s.start - t0) * 1e6,
                 (s.end - t0) * 1e6, s.parent, s.op);
  }
  std::fprintf(f, "\n], \"counters\": {");
  bool first = true;
  for (const auto& [name, v] : counters_) {
    std::fprintf(f, "%s\n  \"%s\": %.17g", first ? "" : ",", name.c_str(), v);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
