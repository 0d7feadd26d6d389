#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench/bench.h"

namespace pb {

bool Report::has_layer(const std::string& n) const {
  for (const Metric& m : per_layer) {
    if (m.name == n) return true;
  }
  return false;
}

// ------------------------------------------------------------------ tracing

namespace {
thread_local std::uint32_t t_current = 0;
}  // namespace

void Tracer::record(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::vector<Span> all = spans();
  std::map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;
  // Child time clipped to the parent's interval; siblings on one thread do
  // not overlap, and cross-thread children (actor hops) nest in the post.
  std::vector<std::uint64_t> child_ns(all.size(), 0);
  for (const Span& s : all) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = all[it->second];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) child_ns[it->second] += hi - lo;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string name = all[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    const std::uint64_t d = all[i].end_ns - all[i].start_ns;
    const std::uint64_t self = d > child_ns[i] ? d - child_ns[i] : 0;
    out[layer] += static_cast<double>(self) / 1e6;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "id,parent,name,start_ns,end_ns,work\n");
  for (const Span& s : spans()) {
    std::fprintf(f, "%u,%u,%s,%llu,%llu,%llu\n", s.id, s.parent, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.work));
  }
  return std::fclose(f) == 0;
}

Scope::Scope(Tracer* t, const char* name, std::uint64_t work, std::uint32_t parent)
    : t_(t) {
  if (!t_) return;
  span_.name = name;
  span_.work = work;
  span_.id = t_->next_id();
  span_.parent = parent == kInherit ? t_current : parent;
  saved_ = t_current;
  t_current = span_.id;
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!t_) return;
  span_.end_ns = now_ns();
  t_current = saved_;
  t_->record(span_);
}

// --------------------------------------------------------------- measuring

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

namespace {
double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}
}  // namespace

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Segments::Segments(double seg_s, double (*cpu_s)(), bool at_marks)
    : seg_s_(seg_s), cpu_s_(cpu_s), at_marks_(at_marks), start_ns_(now_ns()), cpu0_(cpu_s()) {}

void Segments::op(double sample) {
  samples_.push_back(sample);
  if (!at_marks_) mark();
}

void Segments::mark() {
  const double elapsed = static_cast<double>(now_ns() - start_ns_) / 1e9;
  if (elapsed >= seg_s_) close(elapsed);
}

void Segments::finish() {
  const double elapsed = static_cast<double>(now_ns() - start_ns_) / 1e9;
  if (elapsed >= seg_s_ / 2 || rate_.empty()) close(elapsed);
  samples_.clear();
  start_ns_ = now_ns();
  cpu0_ = cpu_s_();
}

void Segments::close(double elapsed_s) {
  if (!samples_.empty()) {
    const double n = static_cast<double>(samples_.size());
    const double cpu = cpu_s_();
    rate_.push_back(n / elapsed_s);
    cpu_ms_.push_back((cpu - cpu0_) * 1000.0 / n);
    p50_.push_back(quantile(samples_, 0.5));
    p99_.push_back(quantile(samples_, 0.99));
    cpu0_ = cpu;
  }
  samples_.clear();
  start_ns_ = now_ns();
}

std::uint64_t delta(const adgc::Counter& after, const adgc::Counter& before) {
  return after.get() - before.get();
}

}  // namespace pb
