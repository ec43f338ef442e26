#include "tracefold.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <vector>

namespace qt8bench {

namespace {

struct Span
{
    uint32_t name;
    double ts; ///< Start, microseconds.
    double dur;
};

/// The number after `"key":` on @p line (false when absent).
bool
numberAfter(const std::string &line, const char *key, double &out)
{
    const size_t at = line.find(key);
    if (at == std::string::npos)
        return false;
    out = std::strtod(line.c_str() + at + std::char_traits<char>::length(key),
                      nullptr);
    return true;
}

} // namespace

bool
foldTrace(const std::string &path, std::map<std::string, SpanStat> &out,
          std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot read trace " + path;
        return false;
    }
    std::vector<std::string> names;
    std::map<std::string, uint32_t> ids;
    std::map<uint32_t, std::vector<Span>> by_tid;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        const size_t n0 = line.find("\"name\":\"");
        if (n0 == std::string::npos)
            continue;
        std::string name;
        for (size_t i = n0 + 8; i < line.size() && line[i] != '"'; ++i)
            name += line[i] == '\\' && i + 1 < line.size() ? line[++i]
                                                           : line[i];
        double ts = 0, dur = 0, tid = 0;
        if (!numberAfter(line, "\"ts\":", ts) ||
            !numberAfter(line, "\"dur\":", dur) ||
            !numberAfter(line, "\"tid\":", tid))
            continue;
        const auto [it, fresh] =
            ids.emplace(name, static_cast<uint32_t>(names.size()));
        if (fresh)
            names.push_back(name);
        by_tid[static_cast<uint32_t>(tid)].push_back({it->second, ts, dur});
    }
    if (names.empty()) {
        *err = "no spans in trace " + path;
        return false;
    }

    std::vector<SpanStat> stats(names.size());
    // Timestamps carry 1 ns of print rounding; a child may appear to
    // end that much past its parent.
    constexpr double kSlackUs = 0.002;
    for (auto &[tid, spans] : by_tid) {
        std::sort(spans.begin(), spans.end(),
                  [](const Span &a, const Span &b) {
                      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
                  });
        std::vector<const Span *> open;
        for (const Span &s : spans) {
            while (!open.empty() &&
                   open.back()->ts + open.back()->dur <= s.ts + kSlackUs)
                open.pop_back();
            SpanStat &st = stats[s.name];
            ++st.count;
            st.total_ms += s.dur / 1000.0;
            st.self_ms += s.dur / 1000.0;
            if (!open.empty())
                stats[open.back()->name].self_ms -= s.dur / 1000.0;
            open.push_back(&s);
        }
    }
    for (size_t i = 0; i < names.size(); ++i)
        out[names[i]] = stats[i];
    return true;
}

} // namespace qt8bench
