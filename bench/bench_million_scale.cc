// Million-scale scenario stream: the 1M-user / 100k-video world of
// MillionScaleWorldConfig, 3 simulated days (diurnal load; a day-1 flash
// crowd; a day-2 demographic drift) streamed chunked through one fp16
// engine with the quality watchdog attached. Exits non-zero unless the
// stream ran, RSS stayed under 24 GB, the drift raised (label-shift)
// alerts and the flash crowd took over 10% of its day's impressions.
// tests/scenario_test.cc applies the same gates to a 20k-user world.

#include <cstdio>
#include <iostream>

#include "eval/experiment_runner.h"

using namespace rtrec;

int main() {
  std::printf("=== Million-scale scenario stream (1M users, 100k videos, "
              "3 days, fp16) ===\n\n");
  const ScenarioStreamResult r =
      RunScenarioStream(MillionScaleWorldConfig(), /*days=*/3);

  std::printf("world built in %.1fs; %lld actions streamed in %.1fs "
              "(%.0f actions/s)\n",
              r.world_build_s, static_cast<long long>(r.actions),
              r.elapsed_s, r.actions_per_sec());
  std::printf("RSS %.0f MB at start, %.0f MB at end, %.0f MB peak\n",
              r.rss_start_mb, r.rss_end_mb, r.rss_peak_mb);
  std::printf("factor state %zu entries x %zu B = %.1f MB; sim tables "
              "%.1f MB arena\n",
              r.factor_entries, r.bytes_per_factor_entry, r.approx_factor_mb,
              r.sim_arena_mb);
  std::printf("flash crowd video: %.1f%% of day-1 impressions\n",
              r.flash_crowd_impression_share * 100.0);
  std::printf("watchdog alerts: %lld before the drift day, %lld after "
              "(label shift %lld -> %lld)\n\n",
              static_cast<long long>(r.alerts_before_drift),
              static_cast<long long>(r.alerts_after_drift),
              static_cast<long long>(r.label_shift_alerts_before_drift),
              static_cast<long long>(r.label_shift_alerts_after_drift));

  TablePrinter table({"day", "actions", "eng/imp", "logloss (max)",
                      "calibration (max abs)", "drift (max abs)",
                      "max abs label shift", "alerts (label)"});
  for (std::size_t day = 0; day < r.days.size(); ++day) {
    const ScenarioDay& d = r.days[day];
    table.AddRow(
        {std::to_string(day), std::to_string(d.actions),
         Cell(d.impressions > 0 ? static_cast<double>(d.engagements) /
                                      static_cast<double>(d.impressions)
                                : 0.0,
              3),
         Cell(d.logloss) + " (" + Cell(d.max_logloss) + ")",
         Cell(d.calibration) + " (" + Cell(d.max_abs_calibration) + ")",
         Cell(d.prediction_drift) + " (" +
             Cell(d.max_abs_prediction_drift) + ")",
         Cell(d.max_abs_label_shift),
         std::to_string(d.alerts) + " (" +
             std::to_string(d.label_shift_alerts) + ")"});
  }
  table.Print(std::cout);

  bool ok = true;
  auto gate = [&ok](bool pass, const char* what) {
    std::printf("%s  %s\n", pass ? "PASS" : "FAIL", what);
    ok = ok && pass;
  };
  std::printf("\n");
  gate(r.actions > 0 && r.actions_per_sec() > 0, "stream processed actions");
  gate(r.rss_peak_mb > 0 && r.rss_peak_mb <= 24576, "RSS peak <= 24 GB");
  gate(r.alerts_after_drift > r.alerts_before_drift,
       "drift day raised watchdog alerts");
  gate(r.label_shift_alerts_after_drift > r.label_shift_alerts_before_drift,
       "drift day raised label-shift alerts");
  gate(r.flash_crowd_impression_share > 0.1,
       "flash crowd > 10% of day-1 impressions");
  return ok ? 0 : 1;
}
