#include "obs/drift.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace hbd::obs {

void DriftAudit::record(std::string_view phase, double measured_s,
                        double modeled_s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(phase);
  if (it == entries_.end())
    it = entries_.emplace(std::string(phase), Entry{}).first;
  Entry& e = it->second;
  ++e.windows;
  e.measured_total += measured_s;
  e.modeled_total += modeled_s;
  // Ratios need both sides of the window: a zero measurement (e.g. telemetry
  // compiled out) would otherwise poison the median toward 0.
  if (modeled_s > 0.0 && measured_s > 0.0) {
    e.ratio_last = measured_s / modeled_s;
    if (e.ratios.size() < kHistory) {
      e.ratios.push_back(e.ratio_last);
    } else {
      e.ratios[e.ring_head] = e.ratio_last;
      e.ring_head = (e.ring_head + 1) % kHistory;
    }
  }
}

double DriftAudit::median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

std::vector<PhaseDrift> DriftAudit::phases() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PhaseDrift> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_)
    out.push_back({name, e.windows, e.measured_total, e.modeled_total,
                   e.ratio_last, median(e.ratios)});
  return out;
}

double DriftAudit::ratio(std::string_view phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(phase);
  return it == entries_.end() ? 0.0 : median(it->second.ratios);
}

std::uint64_t DriftAudit::windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t most = 0;
  for (const auto& [name, entry] : entries_)
    most = std::max(most, entry.windows);
  return most;
}

std::string DriftAudit::report() const {
  std::ostringstream out;
  out << "phase                    windows   measured(s)    modeled(s)  "
         "ratio(last)   ratio(med)\n";
  for (const PhaseDrift& d : phases()) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-24s %7llu %13.6f %13.6f %12.3f %12.3f\n",
                  d.name.c_str(), static_cast<unsigned long long>(d.windows),
                  d.measured_total, d.modeled_total, d.ratio_last,
                  d.ratio_median);
    out << line;
  }
  return out.str();
}

void DriftAudit::write_json(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  w.key("phases");
  w.begin_object();
  for (const PhaseDrift& d : phases()) {
    w.key(d.name);
    w.begin_object();
    w.field("windows", static_cast<double>(d.windows));
    w.field("measured_s", d.measured_total);
    w.field("modeled_s", d.modeled_total);
    w.field("ratio_last", d.ratio_last);
    w.field("ratio_median", d.ratio_median);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  out << "\n";
}

void DriftAudit::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace hbd::obs
