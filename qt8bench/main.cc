/**
 * @file
 * qt8bench: one seeded workload run of the repo benchmark.
 *
 *   qt8bench --workload W --seed N --seconds S --trace 0|1
 *            --config qt8bench/config.json --work-dir DIR
 *   qt8bench --fingerprint W --seed N --seconds S --config ...
 *
 * Workloads: decode-solo, decode-batch, chat-sessions, lora-finetune.
 * Prints a human-readable report, then one JSON line with the metrics:
 * the end-to-end set with --trace 0; with --trace 1 the workload runs
 * once untraced and once under util/trace, and the line carries the
 * per-layer set — client-side and counter metrics, kernel replays,
 * span totals / self times / counts from the traced run, and the
 * tracing overhead on every end-to-end metric. Exits 1 when any output
 * or validity check fails; run.py turns this into the benchmark's
 * final result line.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "common.h"
#include "schedule.h"
#include "tracefold.h"
#include "util/parallel.h"
#include "util/trace.h"
#include "workloads.h"

using namespace qt8bench;

namespace {

RunResult
runWorkload(const Config &cfg, const Options &opt)
{
    if (opt.workload == "decode-solo")
        return runDecodeSolo(cfg, opt);
    if (opt.workload == "decode-batch")
        return runDecodeBatch(cfg, opt);
    if (opt.workload == "chat-sessions")
        return runChat(cfg, opt);
    if (opt.workload == "lora-finetune")
        return runFinetune(cfg, opt);
    throw std::runtime_error("unknown workload " + opt.workload);
}

void
printMetric(const char *kind, const Metric &m)
{
    std::printf("%-6s %-34s %14.6g %-8s", kind, m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0)
        std::printf(" n=%lld", static_cast<long long>(m.samples));
    std::printf("\n");
}

void
printJsonMetrics(const std::vector<Metric> &ms)
{
    std::printf("\"metrics\": {");
    for (size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    std::printf("}");
}

/// Span metric name: '/' is outside the metric charset.
std::string
spanMetric(std::string name, const char *stat)
{
    for (char &c : name)
        if (c == '/')
            c = '.';
    return "span." + name + "." + stat;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: qt8bench --workload W --seed N --seconds S "
                 "--trace 0|1 --config PATH --work-dir DIR\n"
                 "       qt8bench --fingerprint W --seed N --seconds S "
                 "--config PATH\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string fingerprint_of;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload")
            opt.workload = val;
        else if (flag == "--fingerprint")
            fingerprint_of = val;
        else if (flag == "--seed")
            opt.seed = std::strtoull(val, nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::atof(val);
        else if (flag == "--trace")
            opt.trace = std::atoi(val) != 0;
        else if (flag == "--config")
            opt.config_path = val;
        else if (flag == "--work-dir")
            opt.work_dir = val;
        else if (flag == "--inject")
            opt.inject = val;
        else
            return usage();
    }
    if ((opt.workload.empty() && fingerprint_of.empty()) ||
        opt.config_path.empty() || opt.seconds <= 0)
        return usage();

    Config cfg;
    std::string err;
    if (!cfg.load(opt.config_path, &err)) {
        std::fprintf(stderr, "qt8bench: %s\n", err.c_str());
        return 2;
    }

    try {
        if (!fingerprint_of.empty()) {
            std::string bytes;
            if (fingerprint_of == "lora-finetune")
                bytes = finetuneFingerprint(cfg, opt.seed);
            else if (fingerprint_of == "chat-sessions")
                bytes = fingerprint(
                    makeChatSchedule(cfg, opt.seed, opt.seconds * 1000.0));
            else
                bytes = fingerprint(makeDecodeSchedule(cfg, opt.seed));
            std::printf("%s %zu\n", hashHex(bytes).c_str(), bytes.size());
            return 0;
        }

        if (opt.work_dir.empty())
            return usage();
        std::filesystem::create_directories(opt.work_dir);
        std::printf("qt8bench workload=%s seed=%llu seconds=%g trace=%d "
                    "kernel_threads=%d\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), opt.seconds,
                    opt.trace ? 1 : 0, qt8::kernelThreads());

        RunResult base = runWorkload(cfg, opt);
        for (const Metric &m : base.e2e)
            printMetric("e2e", m);
        for (const Metric &m : base.extra)
            printMetric("report", m);
        for (const std::string &n : base.notes)
            std::printf("%s\n", n.c_str());
        std::vector<std::string> errors = base.errors;
        if (!opt.trace)
            for (const Metric &m : base.layer)
                printMetric("layer", m);

        std::vector<Metric> layer;
        if (opt.trace) {
            replayKernels(cfg, base);
            layer = base.layer;

            const std::string path =
                opt.work_dir + format("/trace-%d.json", static_cast<int>(getpid()));
            qt8::trace::start(path);
            const RunResult traced = runWorkload(cfg, opt);
            qt8::trace::stop();
            errors.insert(errors.end(), traced.errors.begin(),
                          traced.errors.end());
            for (const Metric &m : traced.e2e) {
                const double b = base.e2eValue(m.name);
                layer.push_back({"trace_overhead." + m.name,
                                 b != 0.0 ? m.value / b - 1.0 : 0.0, "share",
                                 0});
            }
            std::map<std::string, SpanStat> spans;
            if (!foldTrace(path, spans, &err))
                errors.push_back(err);
            std::filesystem::remove(path);
            std::printf("%-28s %10s %12s %12s\n", "span", "count",
                        "total_ms", "self_ms");
            for (const auto &[name, s] : spans) {
                std::printf("%-28s %10lld %12.3f %12.3f\n", name.c_str(),
                            static_cast<long long>(s.count), s.total_ms,
                            s.self_ms);
                layer.push_back({spanMetric(name, "count"),
                                 static_cast<double>(s.count), "count", 0});
                layer.push_back(
                    {spanMetric(name, "total_ms"), s.total_ms, "ms", 0});
                layer.push_back(
                    {spanMetric(name, "self_ms"), s.self_ms, "ms", 0});
            }
            for (const Metric &m : layer)
                printMetric("layer", m);
        }

        for (const std::string &e : errors)
            std::printf("FAILED %s\n", e.c_str());
        std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": "
                    "%lld, ",
                    errors.empty() ? "true" : "false",
                    static_cast<long long>(base.attempted),
                    static_cast<long long>(base.failed));
        printJsonMetrics(opt.trace ? layer : base.e2e);
        std::printf("}\n");
        return errors.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qt8bench: %s\n", e.what());
        return 2;
    }
}
