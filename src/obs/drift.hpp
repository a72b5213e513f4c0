// Model-vs-measured drift audit (telemetry layer 3).
//
// The performance model (paper Sec. IV-D, Eq. 10–11) predicts per-phase PME
// times from hardware parameters; the hybrid scheduler trusts those
// predictions when partitioning work.  The audit closes the loop: after
// every mobility rebuild the driver's RunObserver records, per phase, the
// measured seconds next to the model's prediction for the same window of
// work.  The audit keeps per-window ratio history and reports the median
// drift per phase.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hbd::obs {

/// Aggregated drift of one phase across audit windows.
struct PhaseDrift {
  std::string name;
  std::uint64_t windows = 0;
  double measured_total = 0.0;  ///< seconds
  double modeled_total = 0.0;   ///< seconds
  double ratio_last = 0.0;      ///< measured/modeled of the latest window
  double ratio_median = 0.0;    ///< median of per-window ratios
};

class DriftAudit {
 public:
  /// Records one audit window for `phase`: `measured_s` seconds observed
  /// against `modeled_s` predicted.  Windows with a non-positive modeled
  /// time contribute to the totals but not to the ratio history.
  void record(std::string_view phase, double measured_s, double modeled_s);

  /// All audited phases, sorted by name.
  std::vector<PhaseDrift> phases() const;

  /// Median measured/modeled ratio of one phase (0 when unaudited).
  double ratio(std::string_view phase) const;

  /// Number of windows recorded for the most-audited phase.
  std::uint64_t windows() const;

  /// Human-readable per-phase table.
  std::string report() const;
  /// {"phases": {name: {windows, measured_s, modeled_s, ratio_last,
  /// ratio_median}, ...}}
  void write_json(std::ostream& out) const;

  void clear();

 private:
  static constexpr std::size_t kHistory = 256;  // ratios kept per phase

  struct Entry {
    std::uint64_t windows = 0;
    double measured_total = 0.0;
    double modeled_total = 0.0;
    double ratio_last = 0.0;
    std::vector<double> ratios;  // ring of the last kHistory ratios
    std::size_t ring_head = 0;
  };

  static double median(std::vector<double> v);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace hbd::obs
