// MetricsRegistry: labeled counters, gauges and histograms harvested
// from every layer after a run (pool depth, view changes, fork events,
// gas per block, trie node reads/writes, messages per consensus phase).
//
// The registry is a post-run sink, not a hot-path dependency: layers
// keep their own cheap counters during the simulation and export them
// into a registry via ExportMetrics(...) when a snapshot is wanted.
// Instruments are keyed by name plus a sorted label set, so the same
// metric emitted with labels in any order lands in one instrument and
// serialized output is deterministic.

#ifndef BLOCKBENCH_OBS_METRICS_H_
#define BLOCKBENCH_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"
#include "util/json.h"

namespace bb::obs {

/// Label set for one instrument, e.g. {{"node","3"},{"type","pbft_prepare"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  void AddCounter(const std::string& name, const Labels& labels,
                  uint64_t delta = 1);
  void SetGauge(const std::string& name, const Labels& labels, double value);
  /// Returns the histogram instrument, creating it if needed. The pointer
  /// stays valid for the registry's lifetime.
  Histogram* GetHistogram(const std::string& name, const Labels& labels);

  /// Lookups return 0 / nullptr when the instrument does not exist (or
  /// exists with a different kind).
  uint64_t CounterValue(const std::string& name, const Labels& labels) const;
  double GaugeValue(const std::string& name, const Labels& labels) const;
  const Histogram* FindHistogram(const std::string& name,
                                 const Labels& labels) const;

  /// Folds `other` into this registry: counters add, gauges take the
  /// incoming value, histograms merge sample sets.
  void Merge(const MetricsRegistry& other);

  size_t size() const { return by_key_.size(); }
  bool empty() const { return by_key_.empty(); }

  /// Array of {name, labels, type, value...} objects in key order —
  /// embedded into blockbench-sweep-v1 rows.
  util::Json ToJson() const;
  /// Human-readable "name{k=v} = value" lines in key order.
  std::string RenderTable() const;

  /// Canonical instrument key: name{k=v,...} with labels sorted by key.
  static std::string Key(const std::string& name, const Labels& labels);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Instrument {
    Kind kind;
    std::string name;
    Labels labels;  // sorted by key
    uint64_t counter = 0;
    double gauge = 0;
    Histogram hist;
  };

  Instrument* Upsert(const std::string& name, const Labels& labels, Kind kind);
  const Instrument* Find(const std::string& name, const Labels& labels,
                         Kind kind) const;

  std::map<std::string, Instrument> by_key_;
};

/// Decimal-prefixed magnitudes for the report tables ("1.23MB", "4.5k"),
/// shared by the profile and memory renderers.
std::string FormatBytes(double bytes);
std::string FormatCount(double count);

}  // namespace bb::obs

#endif  // BLOCKBENCH_OBS_METRICS_H_
