#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace rtrec {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(5);
  EXPECT_EQ(c.value(), 6);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(CounterTest, ConcurrentIncrementsDoNotLoseUpdates) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 80000);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  EXPECT_EQ(g.value(), 10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(DoubleGaugeTest, SetAndValue) {
  DoubleGauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.Set(0.6931);
  EXPECT_EQ(g.value(), 0.6931);
  g.Set(-1.5);
  EXPECT_EQ(g.value(), -1.5);
}

TEST(DoubleGaugeTest, RegistryReportAndPrometheusRendering) {
  MetricsRegistry registry;
  registry.GetDoubleGauge("quality.progressive.logloss")->Set(0.25);
  // Same name returns the same object, in its own namespace.
  EXPECT_EQ(registry.GetDoubleGauge("quality.progressive.logloss")->value(),
            0.25);
  registry.GetGauge("quality.progressive.logloss")->Set(9);

  const std::string report = registry.Report();
  EXPECT_NE(report.find("quality.progressive.logloss = 0.25"),
            std::string::npos);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE quality_progressive_logloss gauge"),
            std::string::npos);
  EXPECT_NE(text.find("quality_progressive_logloss 0.25\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, LookupCreatesOnFirstUse) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("foo");
  ASSERT_NE(c, nullptr);
  c->Increment();
  // Same name returns the same object.
  EXPECT_EQ(registry.GetCounter("foo"), c);
  EXPECT_EQ(registry.GetCounter("foo")->value(), 1);
  // Different name is distinct.
  EXPECT_NE(registry.GetCounter("bar"), c);
}

TEST(MetricsRegistryTest, SeparateNamespacesPerKind) {
  MetricsRegistry registry;
  registry.GetCounter("x")->Increment(5);
  registry.GetGauge("x")->Set(7);
  registry.GetHistogram("x")->Add(3);
  EXPECT_EQ(registry.GetCounter("x")->value(), 5);
  EXPECT_EQ(registry.GetGauge("x")->value(), 7);
  EXPECT_EQ(registry.GetHistogram("x")->count(), 1u);
}

TEST(MetricsRegistryTest, ReportContainsAllMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("alpha")->Increment(3);
  registry.GetGauge("beta")->Set(-2);
  registry.GetHistogram("gamma")->Add(10);
  const std::string report = registry.Report();
  EXPECT_NE(report.find("alpha = 3"), std::string::npos);
  EXPECT_NE(report.find("beta = -2"), std::string::npos);
  EXPECT_NE(report.find("gamma"), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentLookupIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("shared")->Increment();
        registry.GetCounter("own" + std::to_string(t))->Increment();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.GetCounter("shared")->value(), 8000);
}

TEST(MetricsRegistryTest, DefaultRegistryIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Default(), &MetricsRegistry::Default());
}

TEST(PrometheusTextTest, CountersGetTotalSuffixAndTypeLine) {
  MetricsRegistry registry;
  registry.GetCounter("server.requests")->Increment(42);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("server_requests_total 42\n"), std::string::npos);
}

TEST(PrometheusTextTest, NamesAreSanitized) {
  MetricsRegistry registry;
  registry.GetGauge("queue.depth-live")->Set(5);
  const std::string text = registry.PrometheusText();
  // '.' and '-' are not legal in Prometheus metric names.
  EXPECT_NE(text.find("queue_depth_live 5\n"), std::string::npos);
  EXPECT_EQ(text.find("queue.depth-live"), std::string::npos);
}

TEST(PrometheusTextTest, HistogramsRenderAsSummaries) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("rpc.latency.us");
  for (int i = 1; i <= 100; ++i) hist->Add(i);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE rpc_latency_us summary"), std::string::npos);
  EXPECT_NE(text.find("rpc_latency_us{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("rpc_latency_us{quantile=\"0.95\"} "),
            std::string::npos);
  EXPECT_NE(text.find("rpc_latency_us{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("rpc_latency_us_count 100\n"), std::string::npos);
  EXPECT_NE(text.find("rpc_latency_us_sum "), std::string::npos);
}

TEST(PrometheusTextTest, HelpLinesPrecedeTypeLines) {
  MetricsRegistry registry;
  registry.GetCounter("server.requests", "Requests accepted by the server")
      ->Increment(3);
  const std::string text = registry.PrometheusText();
  const std::size_t help = text.find(
      "# HELP server_requests_total Requests accepted by the server\n");
  const std::size_t type =
      text.find("# TYPE server_requests_total counter\n");
  ASSERT_NE(help, std::string::npos) << text;
  ASSERT_NE(type, std::string::npos) << text;
  EXPECT_LT(help, type);
}

TEST(PrometheusTextTest, MissingHelpGetsGeneratedDefault) {
  MetricsRegistry registry;
  registry.GetGauge("queue.depth")->Set(5);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP queue_depth rtrec gauge queue_depth\n"),
            std::string::npos)
      << text;
}

TEST(PrometheusTextTest, FirstNonEmptyHelpStringWins) {
  MetricsRegistry registry;
  registry.GetCounter("x");  // No help yet.
  registry.GetCounter("x", "the real help");
  registry.GetCounter("x", "a different help");  // Ignored: already set.
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP x_total the real help\n"), std::string::npos);
  EXPECT_EQ(text.find("a different help"), std::string::npos);
}

TEST(PrometheusTextTest, HelpEscapesBackslashAndNewline) {
  MetricsRegistry registry;
  registry.GetCounter("weird", "line1\nline2\\end");
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP weird_total line1\\nline2\\\\end\n"),
            std::string::npos)
      << text;
}

TEST(PrometheusTextTest, NativeHistogramsExportCumulativeBuckets) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("rpc.latency.us");
  for (int i = 1; i <= 100; ++i) hist->Add(i);

  MetricsRegistry::ExportOptions options;
  options.native_histograms = true;
  const std::string text = registry.PrometheusText(options);

  // The summary family is still there...
  EXPECT_NE(text.find("# TYPE rpc_latency_us summary"), std::string::npos);
  // ...and a native histogram family rides alongside under _hist.
  EXPECT_NE(text.find("# TYPE rpc_latency_us_hist histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rpc_latency_us_hist_bucket{le=\""), std::string::npos);
  EXPECT_NE(text.find("rpc_latency_us_hist_bucket{le=\"+Inf\"} 100\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rpc_latency_us_hist_count 100\n"), std::string::npos);
  EXPECT_NE(text.find("rpc_latency_us_hist_sum 5050\n"), std::string::npos);

  // Bucket counts are cumulative (non-decreasing in le order).
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  const std::string needle = "rpc_latency_us_hist_bucket{le=\"";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const std::size_t sp = text.find(' ', pos);
    ASSERT_NE(sp, std::string::npos);
    const std::uint64_t cumulative =
        std::strtoull(text.c_str() + sp + 1, nullptr, 10);
    EXPECT_GE(cumulative, prev);
    prev = cumulative;
    pos = sp;
  }
  EXPECT_EQ(prev, 100u);
}

TEST(PrometheusTextTest, DefaultScrapeOmitsNativeHistograms) {
  MetricsRegistry registry;
  registry.GetHistogram("rpc.latency.us")->Add(1);
  const std::string text = registry.PrometheusText();
  EXPECT_EQ(text.find("_hist_bucket"), std::string::npos);
}

TEST(PrometheusTextTest, EmptyRegistryRendersEmpty) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.PrometheusText().empty());
}

TEST(MetricsRegistryTest, ReportDoesNotHoldLockAgainstLookups) {
  // Regression guard for the snapshot-then-format fix: a scrape running
  // concurrently with hot-path lookups must not deadlock or crash. A
  // timing assertion would flake; existence + concurrent progress is
  // the contract worth pinning.
  MetricsRegistry registry;
  for (int i = 0; i < 50; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    registry.GetHistogram(name)->Add(i);
  }
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) {
      (void)registry.Report();
      (void)registry.PrometheusText();
    }
  });
  for (int i = 0; i < 20000; ++i) {
    registry.GetCounter("hot")->Increment();
  }
  stop.store(true);
  scraper.join();
  EXPECT_EQ(registry.GetCounter("hot")->value(), 20000);
}

}  // namespace
}  // namespace rtrec
