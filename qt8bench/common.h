/**
 * @file
 * Shared plumbing for the repo benchmark: wall-clock timing, sample
 * sets with percentiles, peak-RSS probing, the configuration file, and
 * the result record every workload fills (end-to-end metrics, per-layer
 * metrics, validity checks) and main() prints.
 */
#ifndef QT8BENCH_COMMON_H
#define QT8BENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/trace_reader.h"

namespace qt8bench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since @p t0.
inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/// Raw samples with numpy-default (linear) percentiles.
class Samples
{
  public:
    void add(double v) { v_.push_back(v); }
    size_t count() const { return v_.size(); }
    double percentile(double p) const; ///< 0 when empty.
    double median() const { return percentile(50.0); }
    double max() const;
    double sum() const;

  private:
    std::vector<double> v_;
};

/// Peak resident set size of this process (VmHWM), in MiB.
double peakRssMb();

/// Benchmark configuration (config.json next to this file). Lookups
/// use dotted paths ("model.d_model"); a missing key is a fatal error,
/// so a typo never silently falls back to a default.
class Config
{
  public:
    bool load(const std::string &path, std::string *err);
    double num(const std::string &path) const;
    int64_t integer(const std::string &path) const
    {
        return static_cast<int64_t>(num(path));
    }

  private:
    const qt8::json::Value &at(const std::string &path) const;
    qt8::json::Value root_;
};

/// Command line of one benchmark invocation.
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string config_path;
    std::string work_dir; ///< Scratch space (spill files, traces).
    /// Test hook that must make the run fail its checks: "mismatch"
    /// (alter one engine token before the solo comparison),
    /// "nonfinite" (a NaN training loss), "validity" (inputs that
    /// defeat the workload's validity check). Empty in real runs.
    std::string inject;
};

/// One reported number. `samples` is the sample count behind a
/// percentile or mean (0 for a single measurement).
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
};

/// What one workload run produced.
struct RunResult
{
    std::vector<Metric> e2e;   ///< The gated end-to-end metrics.
    std::vector<Metric> extra; ///< Workload-specific end-to-end figures
                               ///< printed in the report only.
    std::vector<Metric> layer; ///< Per-layer metrics (traced run).
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors; ///< Failed correctness checks.
    std::vector<std::string> notes;  ///< Validity-check lines.

    void
    addE2e(const std::string &n, double v, const std::string &u,
           int64_t samples = 0)
    {
        e2e.push_back({n, v, u, samples});
    }
    void
    addExtra(const std::string &n, double v, const std::string &u,
             int64_t samples = 0)
    {
        extra.push_back({n, v, u, samples});
    }
    void
    addLayer(const std::string &n, double v, const std::string &u,
             int64_t samples = 0)
    {
        layer.push_back({n, v, u, samples});
    }
    /// Record a validity check: prints `check <name>: <detail> ok|FAIL`
    /// and fails the run when !pass.
    void check(const std::string &name, bool pass,
               const std::string &detail);
    double e2eValue(const std::string &n) const;
    /// Add a report-only latency figure: p50 and p95 with their sample
    /// count, plus a note naming the highest percentile that still has
    /// ten samples beyond it.
    void addLatency(const std::string &name, const Samples &s);
};

/// printf into a std::string.
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace qt8bench

#endif // QT8BENCH_COMMON_H
