#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>

namespace gc::obs {

namespace {

int bucket_index(double v) {
  if (v <= Histogram::kMin) return 0;
  const int i = static_cast<int>(
      std::floor(std::log2(v / Histogram::kMin) *
                 Histogram::kBucketsPerOctave));
  return std::clamp(i, 0, Histogram::kNumBuckets - 1);
}

double bucket_midpoint(int i) {
  return Histogram::kMin *
         std::exp2((i + 0.5) / Histogram::kBucketsPerOctave);
}

}  // namespace

void Histogram::observe(double v) {
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  ++buckets_[bucket_index(v)];
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  std::int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= rank)
      return std::clamp(bucket_midpoint(i), min_, max_);
  }
  return max_;
}

std::vector<std::pair<double, std::int64_t>> Histogram::cumulative_buckets()
    const {
  std::vector<std::pair<double, std::int64_t>> out;
  std::int64_t cumulative = 0;
  for (int i = 0; i < static_cast<int>(buckets_.size()); ++i) {
    if (buckets_[i] == 0) continue;
    cumulative += buckets_[i];
    const double upper =
        kMin * std::exp2((i + 1) / kBucketsPerOctave);
    out.emplace_back(upper, cumulative);
  }
  return out;
}

void Histogram::reset() {
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
  std::fill(buckets_.begin(), buckets_.end(), 0);
}

void Histogram::merge_from(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
}

namespace {

template <class T>
T& get_or_create(std::map<std::string, std::unique_ptr<T>>& m,
                 const std::string& name) {
  auto it = m.find(name);
  if (it == m.end())
    it = m.emplace(name, std::make_unique<T>()).first;
  return *it->second;
}

template <class T>
std::vector<std::pair<std::string, const T*>> view(
    const std::map<std::string, std::unique_ptr<T>>& m) {
  std::vector<std::pair<std::string, const T*>> out;
  out.reserve(m.size());
  for (const auto& [name, p] : m) out.emplace_back(name, p.get());
  return out;
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  return get_or_create(counters_, name);
}
Gauge& Registry::gauge(const std::string& name) {
  return get_or_create(gauges_, name);
}
Histogram& Registry::histogram(const std::string& name) {
  return get_or_create(histograms_, name);
}

std::vector<std::pair<std::string, const Counter*>> Registry::counters()
    const {
  return view(counters_);
}
std::vector<std::pair<std::string, const Gauge*>> Registry::gauges() const {
  return view(gauges_);
}
std::vector<std::pair<std::string, const Histogram*>> Registry::histograms()
    const {
  return view(histograms_);
}

void Registry::reset() {
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, c] : other.counters_)
    counter(name).merge_from(*c);
  for (const auto& [name, g] : other.gauges_) gauge(name).merge_from(*g);
  for (const auto& [name, h] : other.histograms_)
    histogram(name).merge_from(*h);
}

Registry& global_registry() {
  static Registry r;
  return r;
}

namespace {
// The thread-current override; null = use the global registry. A plain
// pointer (not an RAII member) so registry() stays a two-instruction load.
thread_local Registry* tls_registry = nullptr;
}  // namespace

Registry& registry() {
  return tls_registry != nullptr ? *tls_registry : global_registry();
}

ThreadRegistryScope::ThreadRegistryScope(Registry* r) : prev_(tls_registry) {
  tls_registry = r;
}

ThreadRegistryScope::~ThreadRegistryScope() { tls_registry = prev_; }

}  // namespace gc::obs
