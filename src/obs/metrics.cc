#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace bb::obs {

namespace {

Labels Sorted(const Labels& labels) {
  Labels out = labels;
  std::sort(out.begin(), out.end());
  return out;
}

/// Counters and integral gauges print as integers, everything else with
/// enough digits to round-trip typical metric values.
void AppendNumber(std::string* out, double v) {
  char buf[64];
  if (v == double(int64_t(v)) && v >= -9.2e18 && v <= 9.2e18) {
    std::snprintf(buf, sizeof(buf), "%lld", (long long)int64_t(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out->append(buf);
}

}  // namespace

std::string MetricsRegistry::Key(const std::string& name,
                                 const Labels& labels) {
  std::string key = name;
  if (labels.empty()) return key;
  key.push_back('{');
  Labels sorted = Sorted(labels);
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key.push_back(',');
    key += sorted[i].first;
    key.push_back('=');
    key += sorted[i].second;
  }
  key.push_back('}');
  return key;
}

MetricsRegistry::Instrument* MetricsRegistry::Upsert(const std::string& name,
                                                     const Labels& labels,
                                                     Kind kind) {
  std::string key = Key(name, labels);
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    Instrument inst;
    inst.kind = kind;
    inst.name = name;
    inst.labels = Sorted(labels);
    it = by_key_.emplace(std::move(key), std::move(inst)).first;
  }
  // A name+labels pair identifies one instrument of one kind; accesses
  // with a mismatched kind are ignored rather than clobbering data.
  if (it->second.kind != kind) return nullptr;
  return &it->second;
}

const MetricsRegistry::Instrument* MetricsRegistry::Find(
    const std::string& name, const Labels& labels, Kind kind) const {
  auto it = by_key_.find(Key(name, labels));
  if (it == by_key_.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

void MetricsRegistry::AddCounter(const std::string& name, const Labels& labels,
                                 uint64_t delta) {
  if (Instrument* inst = Upsert(name, labels, Kind::kCounter)) {
    inst->counter += delta;
  }
}

void MetricsRegistry::SetGauge(const std::string& name, const Labels& labels,
                               double value) {
  if (Instrument* inst = Upsert(name, labels, Kind::kGauge)) {
    inst->gauge = value;
  }
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  Instrument* inst = Upsert(name, labels, Kind::kHistogram);
  return inst != nullptr ? &inst->hist : nullptr;
}

uint64_t MetricsRegistry::CounterValue(const std::string& name,
                                       const Labels& labels) const {
  const Instrument* inst = Find(name, labels, Kind::kCounter);
  return inst != nullptr ? inst->counter : 0;
}

double MetricsRegistry::GaugeValue(const std::string& name,
                                   const Labels& labels) const {
  const Instrument* inst = Find(name, labels, Kind::kGauge);
  return inst != nullptr ? inst->gauge : 0;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name,
                                                const Labels& labels) const {
  const Instrument* inst = Find(name, labels, Kind::kHistogram);
  return inst != nullptr ? &inst->hist : nullptr;
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [key, theirs] : other.by_key_) {
    auto it = by_key_.find(key);
    if (it == by_key_.end()) {
      by_key_.emplace(key, theirs);
      continue;
    }
    Instrument& ours = it->second;
    if (ours.kind != theirs.kind) continue;
    switch (ours.kind) {
      case Kind::kCounter:
        ours.counter += theirs.counter;
        break;
      case Kind::kGauge:
        ours.gauge = theirs.gauge;
        break;
      case Kind::kHistogram:
        ours.hist.Merge(theirs.hist);
        break;
    }
  }
}

util::Json MetricsRegistry::ToJson() const {
  util::Json arr = util::Json::Array();
  for (const auto& [key, inst] : by_key_) {
    util::Json m = util::Json::Object();
    m.Set("name", inst.name);
    util::Json labels = util::Json::Object();
    for (const auto& [k, v] : inst.labels) labels.Set(k, v);
    m.Set("labels", std::move(labels));
    switch (inst.kind) {
      case Kind::kCounter:
        m.Set("type", "counter");
        m.Set("value", inst.counter);
        break;
      case Kind::kGauge:
        m.Set("type", "gauge");
        m.Set("value", inst.gauge);
        break;
      case Kind::kHistogram:
        m.Set("type", "histogram");
        m.Set("count", uint64_t(inst.hist.count()));
        if (inst.hist.count() > 0) {
          m.Set("mean", inst.hist.Mean());
          m.Set("p50", inst.hist.Percentile(50));
          m.Set("p95", inst.hist.Percentile(95));
          m.Set("p99", inst.hist.Percentile(99));
          m.Set("max", inst.hist.max());
        }
        break;
    }
    arr.Push(std::move(m));
  }
  return arr;
}

std::string MetricsRegistry::RenderTable() const {
  // Keys pad to one column so values align; histogram rows break out
  // count / mean / p50 / p95 / p99 / max as fixed columns.
  size_t key_width = 0;
  for (const auto& [key, inst] : by_key_) {
    key_width = std::max(key_width, key.size());
  }
  std::string out;
  char buf[192];
  for (const auto& [key, inst] : by_key_) {
    std::snprintf(buf, sizeof(buf), "%-*s  ", int(key_width), key.c_str());
    out += buf;
    switch (inst.kind) {
      case Kind::kCounter:
        AppendNumber(&out, double(inst.counter));
        break;
      case Kind::kGauge:
        AppendNumber(&out, inst.gauge);
        break;
      case Kind::kHistogram: {
        const Histogram& h = inst.hist;
        std::snprintf(buf, sizeof(buf),
                      "count %8llu  mean %10.4f  p50 %10.4f  p95 %10.4f  "
                      "p99 %10.4f  max %10.4f",
                      (unsigned long long)h.count(), h.Mean(),
                      h.Percentile(50), h.Percentile(95), h.Percentile(99),
                      h.max());
        out += buf;
        break;
      }
    }
    out.push_back('\n');
  }
  return out;
}

std::string FormatBytes(double b) {
  char buf[32];
  if (b >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fGB", b / 1e9);
  } else if (b >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fMB", b / 1e6);
  } else if (b >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", b / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", b);
  }
  return buf;
}

std::string FormatCount(double c) {
  char buf[32];
  if (c >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", c / 1e9);
  } else if (c >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", c / 1e6);
  } else if (c >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", c / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", c);
  }
  return buf;
}

}  // namespace bb::obs
