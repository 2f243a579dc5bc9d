#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "util/bufwriter.h"

namespace bb::obs {

namespace {

constexpr const char* kTxSpanNames[Tracer::kNumTxSpans] = {
    "tx.admission",      // submit  -> admit
    "tx.pool_wait",      // admit   -> propose
    "tx.consensus",      // propose -> commit
    "tx.confirmation",   // commit  -> confirm
};

/// Seconds -> microseconds with fixed millinanosecond precision; the
/// fixed format keeps traces byte-identical across runs.
void AppendMicros(std::string* out, double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  out->append(buf);
}

void AppendArgNumber(std::string* out, double v) {
  char buf[48];
  if (v == double(int64_t(v)) && v >= -9.2e18 && v <= 9.2e18) {
    std::snprintf(buf, sizeof(buf), "%lld", (long long)int64_t(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out->append(buf);
}

}  // namespace

const char* Tracer::TxSpanName(size_t leg) {
  return leg < kNumTxSpans ? kTxSpanNames[leg] : "tx.unknown";
}

const Tracer::TxMilestones& Tracer::TxMilestone(uint64_t tx_id, TxPhase phase,
                                                double t) {
  auto [it, inserted] = tx_.try_emplace(tx_id);
  TxMilestones& ms = it->second;
  // A tx seen first past kSubmit was never submitted through a traced
  // client (e.g. injected directly in a test): start a partial record.
  if (inserted || phase == kSubmit) ms.fill(-1);
  if (ms[phase] >= 0) return ms;  // first milestone wins (gossip, replicas)
  ms[phase] = t;
  if (phase == kSubmit) return ms;
  size_t leg = size_t(phase) - 1;
  if (ms[leg] >= 0) {
    // Emit the async span for the completed leg; pid/tid of async
    // events are fixed at render time, here we only log endpoints.
    PushEvent(0, "tx", TxSpanName(leg), 'b', ms[leg], 0, tx_id, nullptr, 0);
    PushEvent(0, "tx", TxSpanName(leg), 'e', t, 0, tx_id, nullptr, 0);
  }
  return ms;
}

const Tracer::TxMilestones* Tracer::FindTx(uint64_t tx_id) const {
  auto it = tx_.find(tx_id);
  return it != tx_.end() ? &it->second : nullptr;
}

void Tracer::RenderEvent(const Event& e, std::string* out) {
  out->append("{\"ph\":\"");
  out->push_back(e.ph);
  out->push_back('"');
  if (e.ph == 'b' || e.ph == 'e') {
    // Async tx-lifecycle events live in their own process so Perfetto
    // groups them apart from the per-node tracks.
    out->append(",\"pid\":1,\"tid\":0");
    char buf[32];
    std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                  (unsigned long long)e.id);
    out->append(buf);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ",\"pid\":0,\"tid\":%u", e.tid);
    out->append(buf);
    if (e.ph == 'C') {
      // name + id identify one counter track: per-node series of the
      // same gauge stay separate ("pool.depth" id 0, 1, ...).
      std::snprintf(buf, sizeof(buf), ",\"id\":\"%llu\"",
                    (unsigned long long)e.id);
      out->append(buf);
    } else if (e.ph == 's' || e.ph == 'f') {
      // Flow arrows: the id (message seq) pairs a start with its finish;
      // bp:"e" binds the finish to the enclosing anchor span.
      std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                    (unsigned long long)e.id);
      out->append(buf);
      if (e.ph == 'f') out->append(",\"bp\":\"e\"");
    }
  }
  out->append(",\"ts\":");
  AppendMicros(out, e.ts);
  if (e.ph == 'X') {
    out->append(",\"dur\":");
    AppendMicros(out, e.dur);
  }
  if (e.ph == 'i') out->append(",\"s\":\"t\"");
  out->append(",\"cat\":\"");
  out->append(e.cat);
  out->append("\",\"name\":\"");
  out->append(e.name);
  out->push_back('"');
  if (e.arg_key != nullptr) {
    out->append(",\"args\":{\"");
    out->append(e.arg_key);
    out->append("\":");
    AppendArgNumber(out, e.arg_val);
    out->push_back('}');
  }
  out->push_back('}');
}

void Tracer::RenderTo(
    const std::function<void(const std::string&)>& sink) const {
  std::string line;
  line.reserve(256);

  sink("{\"traceEvents\":[\n");
  // Metadata: name the two processes and each node track.
  sink("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"cluster\"}},\n");
  sink("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"transactions\"}},\n");
  for (uint32_t tid = 0; tid <= max_tid_; ++tid) {
    line.clear();
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":0,\"tid\":%u,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"node %u\"}}",
                  tid, tid);
    line.append(buf);
    if (tid < max_tid_ || !events_.empty()) line.push_back(',');
    line.push_back('\n');
    sink(line);
  }
  for (size_t i = 0; i < events_.size(); ++i) {
    line.clear();
    RenderEvent(events_[i], &line);
    if (i + 1 < events_.size()) line.push_back(',');
    line.push_back('\n');
    sink(line);
  }
  sink("],\"displayTimeUnit\":\"ms\"}\n");
}

std::string Tracer::DumpChromeTrace() const {
  std::string out;
  out.reserve(events_.size() * 128 + 256);
  RenderTo([&out](const std::string& chunk) { out.append(chunk); });
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  util::BufferedWriter writer;
  BB_RETURN_IF_ERROR(writer.Open(path));
  RenderTo([&writer](const std::string& chunk) { writer.Append(chunk); });
  return writer.Close();
}

// --- Reading a trace back (bbreport, tests) ----------------------------------

namespace {

int LegIndex(const std::string& name) {
  for (size_t i = 0; i < Tracer::kNumTxSpans; ++i) {
    if (name == Tracer::TxSpanName(i)) return int(i);
  }
  return -1;
}

/// Linear-interpolated percentile over an unsorted sample vector (same
/// convention as util::Histogram::Percentile). Sorts in place.
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  double rank = p * double(v->size() - 1);
  size_t lo = size_t(rank);
  size_t hi = lo + 1 < v->size() ? lo + 1 : lo;
  double frac = rank - double(lo);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * frac;
}

/// "  KEY" left-justified to the table's 24-column key field; keys come
/// from the document, so they are appended rather than formatted into a
/// fixed buffer.
std::string PadKey(const std::string& key) {
  return "  " + key + std::string(key.size() < 24 ? 24 - key.size() : 0, ' ');
}

}  // namespace

Status AnalyzeChromeTrace(const util::Json& doc, TraceSummary* out) {
  using util::Json;
  const Json* events = doc.Get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument("no traceEvents array");
  }
  // Open async 'b' events: (cat, name, id) -> start ts.
  std::map<std::string, double> open_async;
  // Flow starts seen so far, keyed (cat, id) — flows bind across names
  // ("net.send" starts what "net.recv" finishes).
  std::unordered_set<std::string> flow_open;
  for (size_t i = 0; i < events->items().size(); ++i) {
    const Json& e = events->items()[i];
    std::string at = "event " + std::to_string(i);
    if (!e.is_object()) return Status::InvalidArgument(at + " not an object");
    const Json* ph = e.Get("ph");
    const Json* name = e.Get("name");
    if (ph == nullptr || !ph->is_string() || ph->AsString().size() != 1) {
      return Status::InvalidArgument(at + " has no phase");
    }
    if (name == nullptr || !name->is_string()) {
      return Status::InvalidArgument(at + " has no name");
    }
    char p = ph->AsString()[0];
    if (p == 'M') continue;  // metadata carries no timestamp
    ++out->events;
    const Json* ts = e.Get("ts");
    if (ts == nullptr || !ts->is_number()) {
      return Status::InvalidArgument(at + " has no timestamp");
    }
    const Json* cat = e.Get("cat");
    std::string cat_name = cat != nullptr ? cat->AsString() : "";
    std::string key = cat_name + "/" + name->AsString();
    switch (p) {
      case 'X': {
        const Json* dur = e.Get("dur");
        if (dur == nullptr || !dur->is_number() || dur->AsDouble() < 0) {
          return Status::InvalidArgument(at + " ('" + name->AsString() +
                                         "') has no valid duration");
        }
        TraceSummary::SpanStats& s = out->x_spans[key];
        ++s.count;
        s.total_us += dur->AsDouble();
        ++out->complete_spans;
        break;
      }
      case 'i':
        ++out->instants;
        break;
      case 'C': {
        // Counter track: needs an id (node) and numeric-only args —
        // these are the obs::Sampler's gauge samples.
        const Json* id = e.Get("id");
        if (id == nullptr || !id->is_string()) {
          return Status::InvalidArgument(at + " counter without id");
        }
        const Json* args = e.Get("args");
        if (args == nullptr || !args->is_object() || args->size() == 0) {
          return Status::InvalidArgument(at + " counter without args");
        }
        double value = 0;
        for (const auto& [k, v] : args->members()) {
          if (!v.is_number()) {
            return Status::InvalidArgument(at + " counter arg '" + k +
                                           "' is not numeric");
          }
          value = v.AsDouble();
        }
        TraceSummary::CounterStats& c = out->counters[key];
        if (c.samples == 0) {
          c.min = c.max = value;
        } else {
          c.min = std::min(c.min, value);
          c.max = std::max(c.max, value);
        }
        ++c.samples;
        ++c.tracks[id->AsString()];
        ++out->counter_samples;
        break;
      }
      case 'b':
      case 'e': {
        const Json* id = e.Get("id");
        if (id == nullptr || !id->is_string()) {
          return Status::InvalidArgument(at + " async event without id");
        }
        std::string akey = key + "/" + id->AsString();
        if (p == 'b') {
          if (!open_async.emplace(akey, ts->AsDouble()).second) {
            return Status::InvalidArgument(at + " duplicate async begin " +
                                           akey);
          }
          break;
        }
        auto it = open_async.find(akey);
        if (it == open_async.end()) {
          return Status::InvalidArgument(at + " async end without begin " +
                                         akey);
        }
        double dur_us = ts->AsDouble() - it->second;
        if (dur_us < 0) {
          return Status::InvalidArgument(at + " async span " + akey +
                                         " ends before it begins");
        }
        open_async.erase(it);
        ++out->async_pairs;
        int leg = LegIndex(name->AsString());
        if (leg >= 0) {
          auto [li, inserted] = out->tx_legs.try_emplace(id->AsString());
          if (inserted) li->second.fill(-1);
          li->second[size_t(leg)] = dur_us;
        }
        break;
      }
      case 's':
      case 'f': {
        const Json* id = e.Get("id");
        if (id == nullptr || !id->is_string()) {
          return Status::InvalidArgument(at + " flow event without id");
        }
        std::string fkey = cat_name + "/" + id->AsString();
        if (p == 's') {
          // Re-used ids are illegal: each message seq starts one flow.
          if (!flow_open.insert(fkey).second) {
            return Status::InvalidArgument(at + " duplicate flow start " +
                                           fkey);
          }
          ++out->flow_starts;
          break;
        }
        if (flow_open.erase(fkey) == 0) {
          return Status::InvalidArgument(at + " flow finish without start " +
                                         fkey);
        }
        const Json* bp = e.Get("bp");
        if (bp == nullptr || bp->AsString() != "e") {
          return Status::InvalidArgument(at + " flow finish without bp:\"e\"");
        }
        ++out->flow_ends;
        break;
      }
      default:
        return Status::InvalidArgument(at + " has unknown phase '" +
                                       ph->AsString() + "'");
    }
  }
  if (!open_async.empty()) {
    return Status::InvalidArgument(
        std::to_string(open_async.size()) +
        " async span(s) never closed, first: " + open_async.begin()->first);
  }
  return Status::Ok();
}

std::string RenderTraceSummary(const TraceSummary& t) {
  constexpr size_t kLegs = Tracer::kNumTxSpans;
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%llu events OK (%llu spans, %llu instants, %llu async "
                "pairs, %llu counter samples, %llu/%llu flows, %zu txs)\n",
                (unsigned long long)t.events,
                (unsigned long long)t.complete_spans,
                (unsigned long long)t.instants,
                (unsigned long long)t.async_pairs,
                (unsigned long long)t.counter_samples,
                (unsigned long long)t.flow_ends,
                (unsigned long long)t.flow_starts, t.tx_legs.size());
  out += buf;

  std::array<double, kLegs> leg_total{};
  std::array<std::vector<double>, kLegs> leg_vals;
  std::vector<double> tx_totals;
  for (const auto& [id, legs] : t.tx_legs) {
    if (std::any_of(legs.begin(), legs.end(), [](double d) { return d < 0; })) {
      continue;
    }
    double total = 0;
    for (size_t i = 0; i < kLegs; ++i) {
      leg_total[i] += legs[i];
      leg_vals[i].push_back(legs[i]);
      total += legs[i];
    }
    tx_totals.push_back(total);
  }
  uint64_t complete = tx_totals.size();
  if (complete > 0) {
    double total_mean_us = 0;
    for (double d : leg_total) total_mean_us += d / double(complete);
    double total_p95_us = Percentile(&tx_totals, 0.95);
    std::snprintf(buf, sizeof(buf),
                  "\ncritical path of commit latency (%llu complete txs):\n",
                  (unsigned long long)complete);
    out += buf;
    // Mean legs telescope to the mean commit latency exactly; the p95
    // column is each leg's own tail (p95 legs do not sum to the total
    // p95 — slow txs are rarely slow in every leg at once).
    for (size_t i = 0; i < kLegs; ++i) {
      double mean_us = leg_total[i] / double(complete);
      double p95_us = Percentile(&leg_vals[i], 0.95);
      std::snprintf(buf, sizeof(buf),
                    "  %-15s mean %10.4f ms  %5.1f%%   p95 %10.4f ms\n",
                    Tracer::TxSpanName(i), mean_us / 1e3,
                    total_mean_us > 0 ? 100.0 * mean_us / total_mean_us : 0.0,
                    p95_us / 1e3);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "  %-15s mean %10.4f ms          p95 %10.4f ms\n", "total",
                  total_mean_us / 1e3, total_p95_us / 1e3);
    out += buf;
  }

  if (!t.x_spans.empty()) {
    out += "\nnamed spans:\n";
    for (const auto& [key, s] : t.x_spans) {
      std::snprintf(buf, sizeof(buf), " count %8llu  mean %10.4f ms\n",
                    (unsigned long long)s.count,
                    s.count > 0 ? s.total_us / double(s.count) / 1e3 : 0.0);
      out += PadKey(key) + buf;
    }
  }

  if (!t.counters.empty()) {
    out += "\ncounter tracks (sampler gauges):\n";
    for (const auto& [key, c] : t.counters) {
      std::snprintf(buf, sizeof(buf),
                    " %zu track(s)  %6llu samples  min %g  max %g\n",
                    c.tracks.size(), (unsigned long long)c.samples, c.min,
                    c.max);
      out += PadKey(key) + buf;
    }
  }
  return out;
}

}  // namespace bb::obs
