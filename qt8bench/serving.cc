/**
 * @file
 * The serving workloads: decode-solo, decode-batch (closed loop) and
 * chat-sessions (open loop). All three drive one 8-bit edge
 * configuration — a seeded random-init CausalLM in posit(8,1) with
 * packed weights and packed KV on the paged engine — through its owned
 * scheduler thread: start(), submit() from one client thread, futures
 * or completion callbacks, stop(kDrain).
 */
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>

#include <unistd.h>

#include "nn/model.h"
#include "schedule.h"
#include "serve/engine.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "util/trace.h"
#include "workloads.h"

namespace qt8bench {

namespace {

using qt8::CausalLM;
using qt8::QuantSession;
namespace serve = qt8::serve;

qt8::ModelConfig
lmConfig(const Config &cfg)
{
    qt8::ModelConfig m;
    m.name = "edge-lm";
    m.vocab = cfg.integer("model.vocab");
    m.max_seq = cfg.integer("model.max_seq");
    m.d_model = cfg.integer("model.d_model");
    m.d_ff = cfg.integer("model.d_ff");
    m.n_heads = static_cast<int>(cfg.integer("model.n_heads"));
    m.n_layers = static_cast<int>(cfg.integer("model.n_layers"));
    return m;
}

/// posit(8,1) everywhere, weights and KV stored as packed codes.
qt8::QuantConfig
edgeQuant()
{
    qt8::QuantConfig qc = qt8::QuantConfig::posit8();
    qc.weights_packed = true;
    qc.kv_packed = true;
    return qc;
}

struct Rig
{
    std::unique_ptr<CausalLM> model;
    std::unique_ptr<QuantSession> qs;
    std::unique_ptr<serve::ServeEngine> engine;

    void
    reset()
    {
        if (engine)
            engine->stop(serve::StopMode::kAbort);
        engine.reset();
        qs.reset();
        model.reset();
    }
};

/// Build the model, pack its weights (the first forward packs them),
/// construct the engine and start its thread — everything before the
/// first request can run. Builds `setup_reps` times and keeps the last;
/// returns the median build time in seconds.
double
buildRig(const Config &cfg, const serve::EngineConfig &ec, Rig &rig)
{
    Samples s;
    const int64_t reps = cfg.integer("setup_reps");
    for (int64_t r = 0; r < reps; ++r) {
        rig.reset();
        const auto t0 = Clock::now();
        rig.model = std::make_unique<CausalLM>(
            lmConfig(cfg), static_cast<uint64_t>(cfg.integer("model.init_seed")));
        rig.qs = std::make_unique<QuantSession>(edgeQuant());
        {
            qt8::DecodeState st = rig.model->beginDecode(
                1, 1, rig.qs->config().kvPackedFormat());
            rig.model->forwardIncremental(*rig.qs, std::vector<int32_t>{8},
                                          st);
        }
        rig.engine =
            std::make_unique<serve::ServeEngine>(*rig.model, *rig.qs, ec);
        rig.engine->start();
        s.add(msSince(t0) / 1000.0);
    }
    return s.median();
}

serve::EngineConfig
engineConfig(const Config &cfg, int64_t n_pages)
{
    serve::EngineConfig ec;
    ec.paged = true;
    ec.page_size = cfg.integer("engine.page_size");
    ec.slot_capacity = cfg.integer("model.max_seq");
    ec.n_pages = n_pages;
    ec.prefix_cache = true;
    return ec;
}

/// The oracle: a solo cached greedy decode of @p prompt (engine
/// stopped, same model and session).
std::vector<int32_t>
soloDecode(Rig &rig, const std::vector<int32_t> &prompt, int64_t max_new,
           int64_t capacity)
{
    QT8_TRACE_SCOPE("bench.oracle");
    qt8::DecodeState st = rig.model->beginDecode(
        1, capacity, rig.qs->config().kvPackedFormat());
    qt8::Tensor logits;
    for (const int32_t tok : prompt)
        logits = rig.model->forwardIncremental(
            *rig.qs, std::vector<int32_t>{tok}, st);
    std::vector<int32_t> out;
    while (static_cast<int64_t>(out.size()) < max_new) {
        const int32_t tok = static_cast<int32_t>(qt8::rowArgmax(logits, 0));
        out.push_back(tok);
        if (static_cast<int64_t>(out.size()) < max_new)
            logits = rig.model->forwardIncremental(
                *rig.qs, std::vector<int32_t>{tok}, st);
    }
    return out;
}

/// Client-side timings around the engine's public calls.
struct Probe
{
    Samples submit_ms;
    Samples snapshot_ms;
    Samples lateness_ms;
    serve::ServeMetrics before;
    serve::ServeMetrics after;
    double wall_ms = 0.0;
};

std::shared_future<serve::RequestResult>
timedSubmit(serve::ServeEngine &engine, serve::Request req, Probe &probe)
{
    QT8_TRACE_SCOPE("bench.submit");
    const auto t0 = Clock::now();
    auto fut = engine.submit(std::move(req));
    probe.submit_ms.add(msSince(t0));
    return fut;
}

void
timedSnapshot(serve::ServeEngine &engine, Probe &probe)
{
    QT8_TRACE_SCOPE("bench.snapshot");
    const auto t0 = Clock::now();
    const serve::ServeMetrics m = engine.metricsSnapshot();
    probe.snapshot_ms.add(msSince(t0));
    (void)m;
}

/// Polls metricsSnapshot() at a fixed interval from its own thread
/// while a workload runs, so a stalled snapshot never delays the
/// client's submissions.
class Monitor
{
  public:
    Monitor(serve::ServeEngine &engine, double poll_ms, Probe &probe)
        : thread_([this, &engine, poll_ms, &probe] {
              std::unique_lock<std::mutex> lock(mu_);
              while (!cv_.wait_for(
                  lock, std::chrono::duration<double, std::milli>(poll_ms),
                  [this] { return stop_; })) {
                  lock.unlock();
                  timedSnapshot(engine, probe);
                  lock.lock();
              }
          })
    {}
    ~Monitor()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_one();
        thread_.join();
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_; ///< Last: starts after the fields above.
};

double
tpotMs(const serve::RequestResult &r)
{
    const double n = static_cast<double>(r.tokens.size());
    return n > 1.0 ? (r.latency_ms - r.ttft_ms) / (n - 1.0) : 0.0;
}

/// One finished request as the client saw it.
struct Done
{
    serve::RequestResult res;
    std::vector<int32_t> prompt; ///< Full prompt as submitted.
    int64_t max_new = 0;
    double lateness_ms = 0.0; ///< Submit start minus due time.
    bool interactive = false;
};

/// Share of prompt rows served without recompute: from the prefix
/// cache or from a resumed session's history (both are prompt
/// prefixes).
double
reusedShare(const std::vector<Done> &done)
{
    int64_t reused = 0;
    int64_t rows = 0;
    for (const Done &d : done) {
        reused += d.res.prefix_reused_tokens + d.res.session_reused_tokens;
        rows += d.res.prompt_tokens;
    }
    return rows > 0 ? static_cast<double>(reused) / rows : 0.0;
}

/// Per-layer `serve.*` metrics: client timings plus counter deltas.
void
addServeLayers(RunResult &out, const Probe &p, const std::vector<Done> &done,
               int64_t n_pages)
{
    const serve::ServeMetrics &a = p.before;
    const serve::ServeMetrics &b = p.after;
    const double steps = static_cast<double>(b.steps - a.steps);
    const double busy = b.busy_ms - a.busy_ms;
    const double lookups =
        static_cast<double>(b.prefix_lookups - a.prefix_lookups);

    out.addLayer("serve.submit_ms.p50", p.submit_ms.median(), "ms",
                 static_cast<int64_t>(p.submit_ms.count()));
    out.addLayer("serve.submit_ms.max", p.submit_ms.max(), "ms",
                 static_cast<int64_t>(p.submit_ms.count()));
    out.addLayer("serve.snapshot_ms.p99", p.snapshot_ms.percentile(99.0),
                 "ms", static_cast<int64_t>(p.snapshot_ms.count()));
    out.addLayer("gen.lateness_ms.p99", p.lateness_ms.percentile(99.0), "ms",
                 static_cast<int64_t>(p.lateness_ms.count()));
    out.addLayer("gen.lateness_ms.max", p.lateness_ms.max(), "ms",
                 static_cast<int64_t>(p.lateness_ms.count()));
    out.addLayer("serve.step_ms.mean", steps > 0 ? busy / steps : 0.0, "ms",
                 static_cast<int64_t>(steps));
    const double gen = static_cast<double>(b.generated_tokens - a.generated_tokens);
    out.addLayer("serve.busy_ms_per_token", gen > 0 ? busy / gen : 0.0, "ms");
    out.addLayer("serve.busy_share", p.wall_ms > 0 ? busy / p.wall_ms : 0.0,
                 "share");
    out.addLayer(
        "serve.rows_per_step",
        steps > 0 ? static_cast<double>(
                        (b.generated_tokens - a.generated_tokens) +
                        (b.prefill_tokens_computed -
                         a.prefill_tokens_computed)) /
                        steps
                  : 0.0,
        "rows");
    out.addLayer("serve.idle_steps",
                 static_cast<double>(b.idle_steps - a.idle_steps), "count");
    out.addLayer("serve.itl_ms.p50", b.token_latency_ms.percentile(50.0),
                 "ms", static_cast<int64_t>(b.token_latency_ms.count()));
    out.addLayer("serve.itl_ms.p99", b.token_latency_ms.percentile(99.0),
                 "ms", static_cast<int64_t>(b.token_latency_ms.count()));
    out.addLayer("serve.prefix_hit_ratio",
                 lookups > 0 ? static_cast<double>(b.prefix_hits -
                                                   a.prefix_hits) /
                                   lookups
                             : 0.0,
                 "share", static_cast<int64_t>(lookups));
    out.addLayer("serve.prefix_reused_share", reusedShare(done), "share");
    out.addLayer("serve.prefill_rows",
                 static_cast<double>(b.prefill_tokens_computed -
                                     a.prefill_tokens_computed),
                 "rows");
    const auto delta = [&](const char *name, int64_t va, int64_t vb,
                           const char *unit) {
        out.addLayer(name, static_cast<double>(vb - va), unit);
    };
    delta("serve.sessions_spilled", a.sessions_spilled, b.sessions_spilled,
          "count");
    delta("serve.sessions_restored", a.sessions_restored,
          b.sessions_restored, "count");
    delta("serve.sessions_recomputed", a.sessions_recomputed,
          b.sessions_recomputed, "count");
    delta("serve.sessions_resident_reused", a.sessions_resident_reused,
          b.sessions_resident_reused, "count");
    delta("serve.spilled_bytes", a.spilled_bytes, b.spilled_bytes, "B");
    delta("serve.restored_bytes", a.restored_bytes, b.restored_bytes, "B");
    delta("serve.spill_failures", a.spill_failures, b.spill_failures,
          "count");
    out.addLayer("serve.pages_resident_peak",
                 static_cast<double>(b.pages_resident_peak), "pages");
    out.addLayer("serve.pages_resident_share",
                 static_cast<double>(b.pages_resident_peak) / n_pages, "share");
    delta("serve.sched_preemptions", a.sched_preemptions,
          b.sched_preemptions, "count");
    delta("serve.preempt_resumes", a.preempt_resumes, b.preempt_resumes,
          "count");
}

/// Requests whose output is re-decoded solo: a seeded sample of
/// `verify.<wl>` indices out of @p n.
std::vector<size_t>
verifySample(uint64_t seed, size_t n, int64_t k)
{
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = i;
    qt8::Rng rng(seed ^ 0x5EEDCAFEULL);
    for (size_t i = n; i > 1; --i)
        std::swap(idx[i - 1],
                  idx[static_cast<size_t>(rng.randint(static_cast<int64_t>(i)))]);
    idx.resize(std::min(n, static_cast<size_t>(std::max<int64_t>(0, k))));
    return idx;
}

/// Re-decode the sampled requests solo and compare token for token.
void
verifyTokens(Rig &rig, const Config &cfg, const std::vector<Done> &done,
             const std::vector<size_t> &sample, bool inject_mismatch,
             RunResult &out)
{
    int64_t mismatched = 0;
    int64_t tokens = 0;
    for (const size_t i : sample) {
        const Done &d = done[i];
        const std::vector<int32_t> want = soloDecode(
            rig, d.prompt, d.max_new, cfg.integer("model.max_seq"));
        tokens += static_cast<int64_t>(want.size());
        std::vector<int32_t> got = d.res.tokens;
        if (inject_mismatch && i == sample.front() && !got.empty())
            got.back() ^= 1;
        if (want != got)
            ++mismatched;
    }
    out.check("tokens_match_solo", mismatched == 0 && !sample.empty(),
              format("%lld of %zu sampled requests (%lld tokens) differ "
                     "from a solo cached decode",
                     static_cast<long long>(mismatched), sample.size(),
                     static_cast<long long>(tokens)));
}

int64_t
generatedTokens(const std::vector<Done> &done)
{
    int64_t n = 0;
    for (const Done &d : done)
        n += static_cast<int64_t>(d.res.tokens.size());
    return n;
}

/// End-to-end metrics shared by the serving workloads.
void
addServingE2e(RunResult &out, double setup_s, const std::vector<Done> &done,
              int64_t sent, double tok_s, int64_t slo_met)
{
    int64_t ok = 0;
    for (const Done &d : done)
        ok += d.res.status == serve::RequestStatus::kOk;
    out.attempted = sent;
    out.failed = sent - ok;
    out.addE2e("setup_s", setup_s, "s");
    out.addE2e("peak_rss_mb", peakRssMb(), "MB");
    out.addE2e("ok_share", sent > 0 ? static_cast<double>(ok) / sent : 0.0,
               "share", sent);
    out.addE2e("throughput", tok_s, "1/s");
    out.addE2e("slo_attainment",
               sent > 0 ? static_cast<double>(slo_met) / sent : 0.0, "share",
               sent);
    out.addExtra("fail_share",
                 sent > 0 ? static_cast<double>(sent - ok) / sent : 0.0,
                 "share", sent);
}

/// decode-* validity: unshared prompts never touch the prefix cache or
/// the spill tier.
void
checkBypass(RunResult &out, const Probe &p)
{
    const int64_t hits = p.after.prefix_hits - p.before.prefix_hits;
    const int64_t spills =
        p.after.sessions_spilled - p.before.sessions_spilled;
    out.check("bypasses_prefix_cache", hits == 0,
              format("prefix hits %lld of %lld lookups",
                     static_cast<long long>(hits),
                     static_cast<long long>(p.after.prefix_lookups -
                                            p.before.prefix_lookups)));
    out.check("bypasses_spill", spills == 0,
              format("sessions spilled %lld", static_cast<long long>(spills)));
}

/// The decode inputs; the "validity" test hook gives every prompt the
/// first prompt's opening tokens, so the prefix cache gets hits.
DecodeSchedule
decodeInputs(const Config &cfg, const Options &opt)
{
    DecodeSchedule s = makeDecodeSchedule(cfg, opt.seed);
    if (opt.inject == "validity") {
        const std::vector<int32_t> head = s.solo.front().prompt;
        const auto share = [&](DecodeItem &it) {
            std::copy(head.begin(),
                      head.begin() + static_cast<std::ptrdiff_t>(std::min(
                                         head.size(), it.prompt.size())),
                      it.prompt.begin());
        };
        for (DecodeItem &it : s.solo)
            share(it);
        for (auto &wave : s.waves)
            for (DecodeItem &it : wave)
                share(it);
    }
    return s;
}

} // namespace

RunResult
runDecodeSolo(const Config &cfg, const Options &opt)
{
    RunResult out;
    const DecodeSchedule sched = decodeInputs(cfg, opt);
    Rig rig;
    const double setup_s = buildRig(
        cfg, engineConfig(cfg, cfg.integer("decode_solo.n_pages")), rig);

    Probe probe;
    const double poll_ms = cfg.num("serve_poll_ms");
    std::vector<Done> done;
    Samples tpot;
    int64_t slo_met = 0;
    const double tpot_limit = cfg.num("slo.decode_solo.tpot_ms");
    probe.before = rig.engine->metricsSnapshot();
    auto monitor =
        std::make_unique<Monitor>(*rig.engine, poll_ms, probe);
    const auto t0 = Clock::now();
    for (const DecodeItem &it : sched.solo) {
        if (msSince(t0) >= opt.seconds * 1000.0)
            break;
        serve::Request req;
        req.prompt = it.prompt;
        req.max_new_tokens = it.max_new;
        req.eos = -1;
        Done d{timedSubmit(*rig.engine, req, probe).get(), it.prompt,
               it.max_new, 0.0, false};
        const double t = tpotMs(d.res);
        tpot.add(t);
        slo_met += d.res.status == serve::RequestStatus::kOk &&
                   t <= tpot_limit;
        done.push_back(std::move(d));
    }
    probe.wall_ms = msSince(t0);
    monitor.reset();
    rig.engine->stop(serve::StopMode::kDrain);
    probe.after = rig.engine->metricsSnapshot();

    addServingE2e(out, setup_s, done, static_cast<int64_t>(done.size()),
                  generatedTokens(done) / (probe.wall_ms / 1000.0), slo_met);
    out.addExtra("solo_tok_s", out.e2eValue("throughput"), "tok/s",
                 static_cast<int64_t>(done.size()));
    out.addLatency("tpot_ms", tpot);
    addServeLayers(out, probe, done, rig.engine->config().n_pages);
    checkBypass(out, probe);
    verifyTokens(rig, cfg, done,
                 verifySample(opt.seed, done.size(),
                              cfg.integer("verify.decode_solo")),
                 opt.inject == "mismatch", out);
    return out;
}

RunResult
runDecodeBatch(const Config &cfg, const Options &opt)
{
    RunResult out;
    const DecodeSchedule sched = decodeInputs(cfg, opt);
    Rig rig;
    const double setup_s = buildRig(
        cfg, engineConfig(cfg, cfg.integer("decode_batch.n_pages")), rig);

    Probe probe;
    const double poll_ms = cfg.num("serve_poll_ms");
    std::vector<Done> done;
    Samples tpot, ttft;
    int64_t slo_met = 0;
    const double tpot_limit = cfg.num("slo.decode_batch.tpot_ms");
    probe.before = rig.engine->metricsSnapshot();
    auto monitor =
        std::make_unique<Monitor>(*rig.engine, poll_ms, probe);
    const auto t0 = Clock::now();
    double wave_ms = 0.0;
    for (const auto &wave : sched.waves) {
        // Start another wave only if it ends within half a wave of the
        // deadline: the window is whole waves, close to --seconds.
        const double elapsed = msSince(t0);
        if (wave_ms > 0.0 && elapsed + 0.5 * wave_ms > opt.seconds * 1000.0)
            break;
        std::vector<std::shared_future<serve::RequestResult>> futs;
        for (const DecodeItem &it : wave) {
            serve::Request req;
            req.prompt = it.prompt;
            req.max_new_tokens = it.max_new;
            req.eos = -1;
            futs.push_back(timedSubmit(*rig.engine, std::move(req), probe));
        }
        for (size_t i = 0; i < wave.size(); ++i) {
            Done d{futs[i].get(), wave[i].prompt, wave[i].max_new, 0.0,
                   false};
            const double t = tpotMs(d.res);
            tpot.add(t);
            ttft.add(d.res.ttft_ms);
            slo_met += d.res.status == serve::RequestStatus::kOk &&
                       t <= tpot_limit;
            done.push_back(std::move(d));
        }
        wave_ms = msSince(t0) - elapsed;
    }
    probe.wall_ms = msSince(t0);
    monitor.reset();
    rig.engine->stop(serve::StopMode::kDrain);
    probe.after = rig.engine->metricsSnapshot();

    addServingE2e(out, setup_s, done, static_cast<int64_t>(done.size()),
                  generatedTokens(done) / (probe.wall_ms / 1000.0), slo_met);
    out.addExtra("batch_tok_s", out.e2eValue("throughput"), "tok/s",
                 static_cast<int64_t>(done.size()));
    out.addLatency("tpot_ms", tpot);
    out.addLatency("ttft_ms", ttft);
    addServeLayers(out, probe, done, rig.engine->config().n_pages);
    checkBypass(out, probe);
    verifyTokens(rig, cfg, done,
                 verifySample(opt.seed, done.size(),
                              cfg.integer("verify.decode_batch")),
                 opt.inject == "mismatch", out);
    return out;
}

namespace {

/// A request the chat client will submit once it is due.
struct Due
{
    double due_ms;
    uint64_t order; ///< Tie-break: generation order.
    bool doc;
    size_t index; ///< Session or doc index.
    size_t turn;

    bool operator>(const Due &o) const
    {
        return due_ms != o.due_ms ? due_ms > o.due_ms : order > o.order;
    }
};

struct Completion
{
    size_t slot; ///< Index into the client's in-flight table.
    double done_ms;
};

} // namespace

RunResult
runChat(const Config &cfg, const Options &opt)
{
    RunResult out;
    const double horizon_ms = opt.seconds * 1000.0;
    const ChatSchedule sched = makeChatSchedule(cfg, opt.seed, horizon_ms);

    const std::string spill_dir =
        opt.work_dir + format("/spill-%d", static_cast<int>(::getpid()));
    std::filesystem::remove_all(spill_dir);
    std::filesystem::create_directories(spill_dir);
    serve::EngineConfig ec = engineConfig(cfg, cfg.integer("chat.n_pages"));
    // The "validity" test hook keeps sessions RAM-only: nothing spills.
    if (opt.inject != "validity")
        ec.spill_dir = spill_dir;
    ec.spill_low_pages = cfg.integer("chat.spill_low_pages");
    ec.spill_high_pages = cfg.integer("chat.spill_high_pages");
    auto &interactive = ec.sched.classes[static_cast<size_t>(
        serve::PriorityClass::kInteractive)];
    interactive.ttft_slo_ms = cfg.num("slo.interactive.ttft_ms");
    auto &standard = ec.sched.classes[static_cast<size_t>(
        serve::PriorityClass::kStandard)];
    standard.ttft_slo_ms = cfg.num("slo.standard.ttft_ms");

    Rig rig;
    const double setup_s = buildRig(cfg, ec, rig);

    // Client state, touched only by this thread except `completions`,
    // which on_complete fills from the engine thread under `mu`.
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Completion> completions;
    std::vector<Done> inflight; // indexed by slot
    std::vector<std::shared_future<serve::RequestResult>> futs;
    std::vector<Due> slot_due;
    std::vector<std::vector<int32_t>> history(sched.sessions.size());

    std::priority_queue<Due, std::vector<Due>, std::greater<Due>> pending;
    uint64_t order = 0;
    for (size_t i = 0; i < sched.sessions.size(); ++i)
        pending.push({sched.sessions[i].arrival_ms, order++, false, i, 0});
    for (size_t i = 0; i < sched.docs.size(); ++i)
        pending.push({sched.docs[i].arrival_ms, order++, true, i, 0});
    size_t expected = sched.docs.size();
    for (const ChatSession &cs : sched.sessions)
        expected += cs.user.size();

    Probe probe;
    const double poll_ms = cfg.num("serve_poll_ms");
    probe.before = rig.engine->metricsSnapshot();
    auto monitor =
        std::make_unique<Monitor>(*rig.engine, poll_ms, probe);
    const auto t0 = Clock::now();
    size_t resolved = 0;
    while (resolved < expected) {
        std::deque<Completion> got;
        {
            std::unique_lock<std::mutex> lock(mu);
            const double now = msSince(t0);
            if (completions.empty() &&
                (pending.empty() || pending.top().due_ms > now)) {
                if (pending.empty())
                    cv.wait(lock);
                else
                    cv.wait_for(lock,
                                std::chrono::duration<double, std::milli>(
                                    pending.top().due_ms - now));
            }
            got.swap(completions);
        }
        for (const Completion &c : got) {
            ++resolved;
            const Due &d = slot_due[c.slot];
            Done &rec = inflight[c.slot];
            rec.res = futs[c.slot].get();
            if (d.doc)
                continue;
            const ChatSession &cs = sched.sessions[d.index];
            std::vector<int32_t> &h = history[d.index];
            h = rec.prompt;
            h.insert(h.end(), rec.res.tokens.begin(), rec.res.tokens.end());
            if (d.turn + 1 < cs.user.size())
                pending.push({c.done_ms + cs.think_ms[d.turn + 1], order++,
                              false, d.index, d.turn + 1});
        }
        while (!pending.empty() && pending.top().due_ms <= msSince(t0)) {
            const Due d = pending.top();
            pending.pop();
            serve::Request req;
            req.eos = -1;
            Done rec;
            if (d.doc) {
                const DocRequest &dr = sched.docs[d.index];
                req.prompt = dr.prompt;
                req.max_new_tokens = dr.max_new;
                req.tenant_id = dr.tenant;
                req.priority_class = serve::PriorityClass::kStandard;
            } else {
                const ChatSession &cs = sched.sessions[d.index];
                req.prompt = d.turn == 0 ? sched.system_prompt
                                         : history[d.index];
                req.prompt.insert(req.prompt.end(), cs.user[d.turn].begin(),
                                  cs.user[d.turn].end());
                req.max_new_tokens = cs.max_new[d.turn];
                req.tenant_id = cs.tenant;
                req.session_id = d.index + 1;
                req.priority_class = serve::PriorityClass::kInteractive;
                rec.interactive = true;
            }
            rec.prompt = req.prompt;
            rec.max_new = req.max_new_tokens;
            const size_t slot = inflight.size();
            req.on_complete = [&, slot](const serve::RequestResult &) {
                const double at = msSince(t0);
                std::lock_guard<std::mutex> lock(mu);
                completions.push_back({slot, at});
                cv.notify_one();
            };
            rec.lateness_ms = msSince(t0) - d.due_ms;
            probe.lateness_ms.add(rec.lateness_ms);
            // The callback only queues the slot; the client reads these
            // tables after it has pushed the entries below.
            futs.push_back(timedSubmit(*rig.engine, std::move(req), probe));
            inflight.push_back(std::move(rec));
            slot_due.push_back(d);
        }
    }
    probe.wall_ms = msSince(t0);
    monitor.reset();
    rig.engine->stop(serve::StopMode::kDrain);
    probe.after = rig.engine->metricsSnapshot();

    // TTFT counts from the due time: submit lateness + engine TTFT.
    Samples ttft_chat, tpot_chat, ttft_doc, tpot_doc, engine_ttft_chat;
    int64_t slo_met = 0;
    for (const Done &d : inflight) {
        const double ttft = d.lateness_ms + d.res.ttft_ms;
        const double tpot = tpotMs(d.res);
        const char *cls = d.interactive ? "interactive" : "standard";
        (d.interactive ? ttft_chat : ttft_doc).add(ttft);
        (d.interactive ? tpot_chat : tpot_doc).add(tpot);
        if (d.interactive)
            engine_ttft_chat.add(d.res.ttft_ms);
        slo_met += d.res.status == serve::RequestStatus::kOk &&
                   ttft <= cfg.num(format("slo.%s.ttft_ms", cls)) &&
                   tpot <= cfg.num(format("slo.%s.tpot_ms", cls));
    }

    // Wall time runs to the last completion, and later turns are due
    // only after earlier ones finish, so a slower engine stretches the
    // run and lowers this open-loop throughput.
    addServingE2e(out, setup_s, inflight,
                  static_cast<int64_t>(inflight.size()),
                  generatedTokens(inflight) / (probe.wall_ms / 1000.0),
                  slo_met);
    out.addLatency("ttft_ms", ttft_chat);
    out.addLatency("engine_ttft_ms", engine_ttft_chat);
    out.addLatency("tpot_ms", tpot_chat);
    out.addLatency("doc.ttft_ms", ttft_doc);
    out.addLatency("doc.tpot_ms", tpot_doc);

    addServeLayers(out, probe, inflight, rig.engine->config().n_pages);
    const double reused_share = reusedShare(inflight);
    out.check("prefix_reuse_dominates", reused_share > 0.5,
              format("%.3f of prompt rows served from the prefix cache or "
                     "a session",
                     reused_share));
    const int64_t spilled =
        probe.after.sessions_spilled - probe.before.sessions_spilled;
    const int64_t restored =
        probe.after.sessions_restored - probe.before.sessions_restored;
    out.check("sessions_spill_and_restore", spilled > 0 && restored > 0,
              format("%lld sessions spilled, %lld restored",
                     static_cast<long long>(spilled),
                     static_cast<long long>(restored)));

    // Verify a seeded sample; later turns are checked against their
    // full-history prompt, so session restore is covered.
    std::vector<size_t> later;
    for (size_t i = 0; i < inflight.size(); ++i)
        if (inflight[i].res.session_kv != serve::SessionKVSource::kNone)
            later.push_back(i);
    std::vector<size_t> sample;
    for (const size_t j : verifySample(opt.seed, later.size(),
                                       cfg.integer("verify.chat_later_turns")))
        sample.push_back(later[j]);
    for (const size_t j : verifySample(opt.seed + 1, inflight.size(),
                                       cfg.integer("verify.chat_any")))
        sample.push_back(j);
    verifyTokens(rig, cfg, inflight, sample, opt.inject == "mismatch", out);

    rig.reset();
    std::filesystem::remove_all(spill_dir);
    return out;
}

} // namespace qt8bench
