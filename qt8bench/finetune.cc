/**
 * @file
 * lora-finetune: the paper's 8-bit LoRA recipe (section 5, Table 7) on
 * a MobileBERT-like encoder with stacked FFNs. posit(8,1) forward and
 * backward with per-tensor gradient scaling, LoRA r=8 on every dense
 * layer, a QNLI-like pair task, AdamW, seeded random init. The loop is
 * the benchmark's own (the shape of data/eval's trainCls) so it can
 * time each module call: PairTask::sample, EncoderClassifier::forward,
 * softmaxCrossEntropy, EncoderClassifier::backward and the optimizer.
 */
#include <cmath>
#include <memory>

#include "data/tasks.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optim.h"
#include "schedule.h"
#include "tensor/ops.h"
#include "util/trace.h"
#include "workloads.h"

namespace qt8bench {

namespace {

using namespace qt8;

ModelConfig
encoderConfig(const Config &cfg)
{
    ModelConfig m = ModelConfig::mobileBertLike();
    m.d_model = cfg.integer("lora.d_model");
    m.d_ff = cfg.integer("lora.d_ff");
    m.n_heads = static_cast<int>(cfg.integer("lora.n_heads"));
    m.n_layers = static_cast<int>(cfg.integer("lora.n_layers"));
    m.n_ffn = static_cast<int>(cfg.integer("lora.n_ffn"));
    m.vocab = cfg.integer("lora.vocab");
    m.max_seq = cfg.integer("lora.seq");
    return m;
}

PairTask
pairTask(const Config &cfg)
{
    return PairTask(PairTask::Kind::kQnli, cfg.integer("lora.vocab"),
                    cfg.integer("lora.seq"));
}

struct Trainer
{
    std::unique_ptr<EncoderClassifier> model;
    std::unique_ptr<QuantSession> qs;
    std::unique_ptr<AdamW> opt;
    ParamList params;
};

/// Construct model + LoRA adapters + quant session + optimizer, until
/// the first step can run; `setup_reps` times, keeping the last.
double
buildTrainer(const Config &cfg, const PairTask &task, Trainer &t)
{
    Samples s;
    for (int64_t r = 0; r < cfg.integer("setup_reps"); ++r) {
        t = Trainer{};
        const auto t0 = Clock::now();
        t.model = std::make_unique<EncoderClassifier>(
            encoderConfig(cfg), task.numClasses(),
            static_cast<uint64_t>(cfg.integer("lora.init_seed")));
        t.model->enableLora(static_cast<int>(cfg.integer("lora.rank")),
                            static_cast<float>(cfg.num("lora.alpha")),
                            /*all_dense=*/true);
        t.model->collectParams(t.params);
        t.qs = std::make_unique<QuantSession>(QuantConfig::posit8());
        t.opt = std::make_unique<AdamW>(cfg.num("lora.lr"), 0.9, 0.999, 1e-8,
                                        cfg.num("lora.weight_decay"));
        s.add(msSince(t0) / 1000.0);
    }
    return s.median();
}

} // namespace

RunResult
runFinetune(const Config &cfg, const Options &opt)
{
    RunResult out;
    const PairTask task = pairTask(cfg);
    Trainer t;
    const double setup_s = buildTrainer(cfg, task, t);

    // The step count is a function of --seconds alone, so the loss
    // trajectory (and train_loss_final) is deterministic per seed.
    const int64_t steps = std::max<int64_t>(
        cfg.integer("lora.min_steps"),
        std::llround(opt.seconds * cfg.num("lora.steps_per_s")));
    const int64_t batch = cfg.integer("lora.batch");
    const double clip = cfg.num("lora.clip_norm");
    const double step_limit = cfg.num("slo.lora.step_ms");

    Rng rng(opt.seed);
    Samples step_ms, sample_ms, fwd_ms, loss_ms, bwd_ms, optim_ms;
    std::vector<double> losses;
    int64_t bad_steps = 0;
    int64_t slo_met = 0;
    const auto t0 = Clock::now();
    for (int64_t s = 0; s < steps; ++s) {
        const auto ts = Clock::now();
        auto t1 = ts;
        const auto lap = [&t1](Samples &into) {
            into.add(msSince(t1));
            t1 = Clock::now();
        };
        ClsBatch b;
        {
            QT8_TRACE_SCOPE("data.sample");
            b = task.sample(rng, batch);
        }
        lap(sample_ms);
        Tensor logits;
        {
            QT8_TRACE_SCOPE("nn.forward");
            logits = t.model->forward(*t.qs, b.ids, b.batch, b.seq,
                                      b.pad.data());
        }
        lap(fwd_ms);
        CEResult ce;
        {
            QT8_TRACE_SCOPE("nn.loss");
            ce = softmaxCrossEntropy(logits, b.label);
        }
        lap(loss_ms);
        {
            QT8_TRACE_SCOPE("nn.backward");
            t.model->backward(*t.qs, ce.dlogits);
        }
        lap(bwd_ms);
        if (opt.inject == "nonfinite" && s == steps / 2)
            ce.loss = std::nan("");
        bool finite = std::isfinite(ce.loss);
        {
            QT8_TRACE_SCOPE("nn.optim");
            finite = finite && gradsFinite(t.params);
            if (finite) {
                clipGradNorm(t.params, clip);
                t.opt->step(t.params);
            }
            zeroGrads(t.params);
        }
        lap(optim_ms);
        const double ms = msSince(ts);
        step_ms.add(ms);
        losses.push_back(ce.loss);
        bad_steps += !finite;
        slo_met += finite && ms <= step_limit;
    }
    const double wall_s = msSince(t0) / 1000.0;

    double tail = 0.0;
    const size_t n_tail = std::max<size_t>(1, losses.size() / 10);
    for (size_t i = losses.size() - n_tail; i < losses.size(); ++i)
        tail += losses[i];
    const double loss_final = tail / static_cast<double>(n_tail);
    size_t nonfinite = 0;
    for (const double l : losses)
        nonfinite += !std::isfinite(l);

    out.attempted = steps;
    out.failed = bad_steps;
    out.addE2e("setup_s", setup_s, "s");
    out.addE2e("peak_rss_mb", peakRssMb(), "MB");
    out.addE2e("ok_share", static_cast<double>(steps - bad_steps) / steps,
               "share", steps);
    out.addE2e("throughput", static_cast<double>(steps * batch) / wall_s,
               "1/s");
    out.addE2e("slo_attainment", static_cast<double>(slo_met) / steps,
               "share", steps);
    out.addExtra("train_samples_s", out.e2eValue("throughput"), "1/s", steps);
    out.addLatency("train_step_ms", step_ms);
    out.addExtra("train_loss_final", loss_final, "nat",
                 static_cast<int64_t>(n_tail));
    out.addExtra("fail_share", static_cast<double>(bad_steps) / steps,
                 "share", steps);

    const double total = step_ms.sum();
    const auto part = [&](const char *name, const Samples &s) {
        out.addLayer(format("%s_ms.p50", name), s.median(), "ms",
                     static_cast<int64_t>(s.count()));
        out.addLayer(format("%s.share", name), total > 0 ? s.sum() / total : 0,
                     "share");
    };
    part("data.sample", sample_ms);
    part("nn.forward", fwd_ms);
    part("nn.loss", loss_ms);
    part("nn.backward", bwd_ms);
    part("nn.optim", optim_ms);

    out.check("losses_finite", nonfinite == 0,
              format("%zu of %zu step losses non-finite, final loss %.4f",
                     nonfinite, losses.size(), loss_final));
    out.check("steps_applied", bad_steps == 0,
              format("%lld of %lld steps skipped",
                     static_cast<long long>(bad_steps),
                     static_cast<long long>(steps)));
    return out;
}

std::string
finetuneFingerprint(const Config &cfg, uint64_t seed)
{
    const PairTask task = pairTask(cfg);
    Rng rng(seed);
    std::string bytes;
    for (int64_t i = 0; i < cfg.integer("lora.fingerprint_batches"); ++i) {
        const ClsBatch b = task.sample(rng, cfg.integer("lora.batch"));
        for (const int32_t id : b.ids)
            bytes += format("%d,", id);
        for (const uint8_t p : b.pad)
            bytes += format("%d,", p);
        for (const int32_t l : b.label)
            bytes += format("%d;", l);
        bytes += '\n';
    }
    return bytes;
}

} // namespace qt8bench
