#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace qt8bench {

double
Samples::percentile(double p) const
{
    if (v_.empty())
        return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(s.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return s[lo] + (s[hi] - s[lo]) * frac;
}

double
Samples::sum() const
{
    double acc = 0.0;
    for (const double v : v_)
        acc += v;
    return acc;
}

double
Samples::max() const
{
    return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end());
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

bool
Config::load(const std::string &path, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *err = "cannot read " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return qt8::json::parse(ss.str(), root_, err);
}

const qt8::json::Value &
Config::at(const std::string &path) const
{
    const qt8::json::Value *cur = &root_;
    size_t start = 0;
    while (start <= path.size()) {
        const size_t dot = path.find('.', start);
        const std::string key = path.substr(
            start, dot == std::string::npos ? std::string::npos : dot - start);
        cur = cur->find(key);
        if (cur == nullptr)
            throw std::runtime_error("config key missing: " + path);
        if (dot == std::string::npos)
            break;
        start = dot + 1;
    }
    return *cur;
}

double
Config::num(const std::string &path) const
{
    const qt8::json::Value &v = at(path);
    if (!v.isNumber())
        throw std::runtime_error("config key not a number: " + path);
    return v.number;
}

void
RunResult::check(const std::string &name, bool pass,
                 const std::string &detail)
{
    notes.push_back(format("check %s: %s %s", name.c_str(), detail.c_str(),
                           pass ? "ok" : "FAIL"));
    if (!pass)
        errors.push_back(name + ": " + detail);
}

double
RunResult::e2eValue(const std::string &n) const
{
    for (const Metric &m : e2e)
        if (m.name == n)
            return m.value;
    return 0.0;
}

void
RunResult::addLatency(const std::string &name, const Samples &s)
{
    const int64_t n = static_cast<int64_t>(s.count());
    addExtra(name + ".p50", s.median(), "ms", n);
    addExtra(name + ".p95", s.percentile(95.0), "ms", n);
    if (n > 10) {
        const double p = std::floor(100.0 * (1.0 - 10.0 / n));
        notes.push_back(format("%s: n=%lld, %.1f samples beyond p95; "
                               "highest percentile with 10 beyond: p%.0f = "
                               "%.4g ms",
                               name.c_str(), static_cast<long long>(n),
                               0.05 * n, p, s.percentile(p)));
    } else {
        notes.push_back(format("%s: n=%lld, too few samples for a tail "
                               "percentile",
                               name.c_str(), static_cast<long long>(n)));
    }
}

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    char buf[1024];
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return std::string(buf, static_cast<size_t>(
                                std::clamp(n, 0, int(sizeof(buf)) - 1)));
}

} // namespace qt8bench
