#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/logging.h"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(4096);
}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::Begin(std::string_view name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = Now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (!enabled_) return;
  FAE_CHECK(!open_.empty() && open_.back() == id)
      << "spans must close innermost first";
  spans_[static_cast<size_t>(id)].end_s = Now();
  open_.pop_back();
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_s,
                                                           s.end_s);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double cur_begin = 0.0;
    double cur_end = -1.0;
    bool open = false;
    for (auto [b, e] : kids) {
      b = std::max(b, spans[i].start_s);
      e = std::min(e, spans[i].end_s);
      if (e <= b) continue;
      if (open && b <= cur_end) {
        cur_end = std::max(cur_end, e);
      } else {
        if (open) covered += cur_end - cur_begin;
        cur_begin = b;
        cur_end = e;
        open = true;
      }
    }
    if (open) covered += cur_end - cur_begin;
    self[i] = spans[i].seconds() - covered;
  }
  return self;
}

std::vector<double> SpanSeconds(const std::vector<Span>& spans,
                                std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

double TopLevelCoverage(const std::vector<Span>& spans, double wall_s) {
  if (wall_s <= 0.0) return 0.0;
  double covered = 0.0;
  for (const Span& s : spans) {
    if (s.parent < 0) covered += s.seconds();
  }
  return covered / wall_s;
}

fae::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return fae::Status::IOError("cannot write " + path);
  const std::vector<double> self = SelfSeconds(spans_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d, \"self_us\": %.3f}}%s\n",
                 s.name.c_str(), s.start_s * 1e6, s.seconds() * 1e6, i,
                 s.parent, self[i] * 1e6,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) return fae::Status::IOError("cannot close " + path);
  return fae::Status::OK();
}

}  // namespace perfbench
