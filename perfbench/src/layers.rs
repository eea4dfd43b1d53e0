//! The traced run: per-layer times and counters, measured from outside the
//! program. Each phase runs once with nv-trace disarmed and once armed; the
//! armed run yields the counters the program already emits and the
//! difference in wall time is the tracing overhead. Stage and per-pair
//! replays then time each call into a layer's public function.

use crate::phases::{self, Setup};
use crate::stats::Latencies;
use crate::{Check, Metric};
use nvbench::ast::ChartType;
use nvbench::core::SynthesizerConfig;
use nvbench::data::{Database, ExecCache, ExecError};
use nvbench::nn::ModelVariant;
use nvbench::quality::DeepEyeFilter;
use nvbench::render::{chart_data_cached_budgeted, RenderError};
use nvbench::sql::parse_sql;
use nvbench::synth::{generate_candidates, NlSynthesizer, VisCandidate};
use nvbench::trace::{self, TraceReport};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Counters that must repeat exactly for a seed, whatever the thread
/// count. Cache hit splits and worker-pool counters depend on how pairs
/// fall to workers and are left out.
#[cfg(test)]
pub const DETERMINISTIC_COUNTERS: [&str; 11] = [
    "synth.candidates",
    "synth.nl_variants",
    "data.exec.calls",
    "data.exec.fuel_used",
    "data.exec.scan_rows",
    "render.spec_bytes",
    "seq2vis.decode_tokens",
    "nn.gemm.flops",
    "nn.tape.nodes",
    "seq2vis.eval_exec_calls",
    "seq2vis.eval_gemm_flops",
];

/// Per-stage time of one pass of the pipeline's per-pair stages.
#[derive(Debug, Clone, Default)]
pub struct StageReplay {
    pub wall_s: f64,
    pub parse_s: f64,
    pub edits_s: f64,
    pub exec_s: f64,
    pub score_s: f64,
    pub nledit_s: f64,
    pub candidates: u64,
    pub kept: u64,
    pub nl_variants: u64,
    pub failed_pairs: u64,
}

fn db_index(dbs: &[Database]) -> HashMap<&str, usize> {
    dbs.iter()
        .enumerate()
        .map(|(i, d)| (d.name.as_str(), i))
        .collect()
}

/// Replays the per-pair stages over the corpus on one thread, with one
/// `ExecCache` per database as a synthesis worker holds them: parse, tree
/// edits, cached execution of each candidate, DeepEye scoring, the
/// pipeline's ranking, then NL edits on the kept vis.
pub fn stage_replay(setup: &Setup) -> StageReplay {
    let cfg = SynthesizerConfig {
        seed: setup.seed,
        ..Default::default()
    };
    let filter = DeepEyeFilter::new(cfg.seed);
    let corpus = &setup.corpus;
    let index = db_index(&corpus.databases);
    let mut caches: Vec<ExecCache> = corpus.databases.iter().map(|_| ExecCache::new()).collect();
    let mut r = StageReplay::default();

    let start = Instant::now();
    for pair in &corpus.pairs {
        let di = index[pair.db_name.as_str()];
        let (db, cache) = (&corpus.databases[di], &mut caches[di]);
        let t = Instant::now();
        let tree = parse_sql(db, &pair.sql);
        let t_parse = Instant::now();
        r.parse_s += (t_parse - t).as_secs_f64();
        let Ok(tree) = tree else {
            r.failed_pairs += 1;
            continue;
        };
        let candidates = generate_candidates(db, &tree);
        r.edits_s += t_parse.elapsed().as_secs_f64();

        let (total, mut good, mut aborted) = (candidates.len() as u64, Vec::new(), false);
        for candidate in candidates {
            let t = Instant::now();
            let data = chart_data_cached_budgeted(db, &candidate.tree, cache, cfg.budget);
            let t_exec = Instant::now();
            r.exec_s += (t_exec - t).as_secs_f64();
            match data {
                Err(RenderError::Exec(
                    ExecError::ResourceExhausted(_) | ExecError::Internal(_),
                )) => {
                    aborted = true;
                    break;
                }
                Err(_) => {}
                Ok(data) => {
                    let (is_good, score) = filter.evaluate(&data);
                    r.score_s += t_exec.elapsed().as_secs_f64();
                    if is_good {
                        good.push((score, data.chart, candidate));
                    }
                }
            }
        }
        if aborted {
            r.failed_pairs += 1;
            continue;
        }
        r.candidates += total;
        r.kept += good.len() as u64;

        let t = Instant::now();
        let mut nl = NlSynthesizer::new(cfg.seed ^ pair.id as u64);
        for candidate in select(good, cfg.max_vis_per_pair) {
            let res = nl.synthesize(db, &pair.nl, &candidate);
            let n = if res.needs_manual_revision {
                res.variants.len().min(2)
            } else {
                res.variants.len()
            };
            r.nl_variants += n as u64;
        }
        r.nledit_s += t.elapsed().as_secs_f64();
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// The pipeline's choice of kept vis: rank by filter score plus a bonus for
/// deletion-free edits, take the best of each chart type first, then fill
/// the remaining slots by rank.
fn select(good: Vec<(f64, ChartType, VisCandidate)>, cap: usize) -> Vec<VisCandidate> {
    let mut ranked: Vec<(f64, ChartType, VisCandidate)> = good
        .into_iter()
        .map(|(score, chart, c)| {
            let bonus = if c.edit.deletion_count() == 0 {
                0.5
            } else {
                0.0
            };
            (score + bonus, chart, c)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    let (mut kept, mut leftovers, mut seen) = (Vec::new(), Vec::new(), HashSet::new());
    for (_, chart, c) in ranked {
        if kept.len() >= cap {
            break;
        }
        if seen.insert(chart) {
            kept.push(c);
        } else {
            leftovers.push(c);
        }
    }
    let room = cap.saturating_sub(kept.len());
    kept.extend(leftovers.into_iter().take(room));
    kept
}

/// Times `synthesize_pair_cached` for every pair on one thread, with one
/// `ExecCache` per database. Samples are tagged with the pair index.
pub fn pair_replay(setup: &Setup) -> Latencies {
    let corpus = &setup.corpus;
    let index = db_index(&corpus.databases);
    let mut caches: Vec<ExecCache> = corpus.databases.iter().map(|_| ExecCache::new()).collect();
    let mut lat = Latencies::default();
    for (i, pair) in corpus.pairs.iter().enumerate() {
        let di = index[pair.db_name.as_str()];
        let t = Instant::now();
        let out = setup.synthesizer.synthesize_pair_cached(
            &corpus.databases[di],
            &pair.nl,
            &pair.sql,
            pair.id as u64,
            &mut caches[di],
        );
        lat.push(t.elapsed().as_secs_f64() * 1e6, i);
        std::hint::black_box(out.ok());
    }
    lat
}

/// Runs `f` with nv-trace armed and returns its result with the report.
fn traced<R>(f: impl FnOnce() -> R) -> (R, TraceReport) {
    trace::reset();
    trace::enable();
    let r = f();
    trace::disable();
    let report = trace::report();
    trace::reset();
    (r, report)
}

fn hit_rate(rep: &TraceReport, layer: &str) -> f64 {
    let hits = rep.counter(&format!("data.cache.{layer}.hits"));
    let misses = rep.counter(&format!("data.cache.{layer}.misses"));
    ratio(hits as f64, (hits + misses) as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn variant_key(v: ModelVariant) -> &'static str {
    match v {
        ModelVariant::Basic => "basic",
        ModelVariant::Attention => "attention",
        ModelVariant::Copy => "copy",
    }
}

/// Everything the traced run measured.
pub struct LayerRun {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable distribution and slowest-item lines.
    pub notes: Vec<String>,
}

pub fn run(setup: &Setup, scale: &phases::Scale) -> LayerRun {
    // Reference walls with tracing disarmed. Rendering runs on one thread
    // here, so its per-vis times add up to its wall time.
    let (cs_plain, synth_plain_s) = phases::synthesize(setup);
    let render_plain = phases::render(&cs_plain.bench, 1);
    let train_plain = phases::train(setup, scale);
    let eval_plain = phases::eval(setup);

    let ((cs, synth_s), rep_synth) = traced(|| phases::synthesize(setup));
    let (render, _) = traced(|| phases::render(&cs.bench, 1));
    let (train, rep_train) = traced(|| phases::train(setup, scale));
    let (eval, rep_eval) = traced(|| phases::eval(setup));

    let stage = stage_replay(setup);
    let pairs = pair_replay(setup);

    let mut checks = vec![
        Check::same(
            "synth digest: set-up, untraced and traced runs",
            &[
                phases::synthesis_digest(&setup.synthesis),
                phases::synthesis_digest(&cs_plain),
                phases::synthesis_digest(&cs),
            ],
        ),
        Check::same(
            "render digest: untraced and traced runs",
            &[render_plain.digest, render.digest],
        ),
        Check::same(
            "train digest: untraced and traced runs",
            &[train_plain.digest, train.digest],
        ),
        Check::same(
            "eval digest: untraced and traced runs",
            &[eval_plain.digest, eval.digest],
        ),
    ];
    for (what, replayed, counter) in [
        ("candidates", stage.candidates, "synth.filter.candidates"),
        ("kept", stage.kept, "synth.filter.kept"),
    ] {
        checks.push(Check::new(
            "stage replay matches the pipeline's filter counters",
            replayed == rep_synth.counter(counter),
            format!(
                "{what}: replay {replayed}, {counter} {}",
                rep_synth.counter(counter)
            ),
        ));
    }

    let plain_s = synth_plain_s + render_plain.wall_s + train_plain.wall_s + eval_plain.wall_s;
    let traced_s = synth_s + render.wall_s + train.wall_s + eval.wall_s;
    let overhead = traced_s / plain_s - 1.0;

    let seq2vis = &eval.predictors[0];
    let (nl4dv, deepeye) = (&eval.predictors[1], &eval.predictors[2]);
    let predict_s: f64 = eval.predictors.iter().map(|p| p.predict_s).sum();
    let match_s = eval.wall_s - predict_s;
    let train_s: f64 = train.variants.iter().map(|v| v.secs).sum();
    let flops = rep_train.counter("nn.gemm.flops");
    let step = rep_train.span_stat("nn.step").unwrap_or_default();
    let stages_s = stage.parse_s + stage.edits_s + stage.exec_s + stage.score_s + stage.nledit_s;

    let attempted = (cs.pair_digests.len() + render.vis + train.epochs + eval.evals) as u64;
    let failed = (cs.quarantine.len() + render.errors + train.nonfinite + eval.panics) as u64;

    let m = Metric::new;
    let mut metrics = vec![
        m("spider.generate_s", setup.times.generate_s, "s"),
        m("sql.parse_s", stage.parse_s, "s"),
        m("synth.edits_s", stage.edits_s, "s"),
        m("synth.candidates", stage.candidates as f64, "count"),
        m("synth.nledit_s", stage.nledit_s, "s"),
        m("synth.nl_variants", stage.nl_variants as f64, "count"),
        m("data.exec_s", stage.exec_s, "s"),
        m(
            "data.exec.calls",
            rep_synth.counter("data.exec.calls") as f64,
            "count",
        ),
        m(
            "data.exec.fuel_used",
            rep_synth.counter("data.exec.fuel_used") as f64,
            "count",
        ),
        m(
            "data.exec.scan_rows",
            rep_synth.counter("data.exec.scan_rows") as f64,
            "count",
        ),
        m(
            "data.cache.scan.hit_rate",
            hit_rate(&rep_synth, "scan"),
            "ratio",
        ),
        m(
            "data.cache.group.hit_rate",
            hit_rate(&rep_synth, "group"),
            "ratio",
        ),
        m(
            "data.cache.result.hit_rate",
            hit_rate(&rep_synth, "result"),
            "ratio",
        ),
        m("quality.score_s", stage.score_s, "s"),
        m(
            "quality.kept_ratio",
            ratio(stage.kept as f64, stage.candidates as f64),
            "ratio",
        ),
        m("core.pair_us.p50", pairs.quantile(0.5), "us"),
        m("core.pair_us.p99", pairs.quantile(0.99), "us"),
        m(
            "core.par_efficiency",
            pairs.total_us() / 1e6 / (setup.threads as f64 * synth_plain_s),
            "ratio",
        ),
        m("render.chart_data_s", render.chart_data_s, "s"),
        m("render.emit_s", render.emit_s, "s"),
        m("render.spec_bytes", render.spec_bytes as f64, "bytes"),
        m("render.vis_us.p50", render.per_vis.quantile(0.5), "us"),
        m("render.vis_us.p99", render.per_vis.quantile(0.99), "us"),
        m("seq2vis.dataset_s", setup.times.dataset_s, "s"),
        m("seq2vis.decode_s", seq2vis.predict_s, "s"),
        m("seq2vis.decode_tokens", seq2vis.tokens as f64, "count"),
        m(
            "seq2vis.decode_tokens_per_s",
            ratio(seq2vis.tokens as f64, seq2vis.predict_s),
            "tokens/s",
        ),
        m(
            "seq2vis.decode_us.p50",
            seq2vis.per_call.quantile(0.5),
            "us",
        ),
        m(
            "seq2vis.decode_us.p95",
            seq2vis.per_call.quantile(0.95),
            "us",
        ),
        m("seq2vis.match_s", match_s, "s"),
        m(
            "seq2vis.eval_exec_calls",
            rep_eval.counter("data.exec.calls") as f64,
            "count",
        ),
        m(
            "seq2vis.eval_gemm_flops",
            rep_eval.counter("nn.gemm.flops") as f64,
            "count",
        ),
    ];
    for v in &train.variants {
        metrics.push(Metric {
            name: format!("nn.train_s.{}", variant_key(v.variant)),
            value: v.secs,
            unit: "s",
        });
    }
    metrics.extend([
        m("nn.step_s", step.total_ns as f64 / 1e9, "s"),
        m("nn.gemm.flops", flops as f64, "count"),
        m(
            "nn.gemm_gflops_per_s",
            ratio(flops as f64 / 1e9, train_s),
            "GFLOP/s",
        ),
        m(
            "nn.tape.nodes",
            rep_train.counter("nn.tape.nodes") as f64,
            "count",
        ),
        m("baselines.nl4dv_s", nl4dv.predict_s, "s"),
        m("baselines.deepeye_s", deepeye.predict_s, "s"),
        m("trace.overhead_frac", overhead, "ratio"),
        m(
            "trace.coverage.synth",
            ratio(stages_s, stage.wall_s),
            "ratio",
        ),
        m(
            "trace.coverage.render",
            ratio(render.chart_data_s + render.emit_s, render.wall_s),
            "ratio",
        ),
        m(
            "trace.coverage.train",
            ratio(train_s, train.phase_s),
            "ratio",
        ),
        m(
            "failed_frac",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
    ]);

    let mut notes = vec![
        format!("synthesized pairs (synthesize_pair_cached, 1 thread): {}", pairs.summary()),
        format!("rendered vis (chart_data + emit): {}", render.per_vis.summary()),
        format!("decoded pairs (seq2vis predict): {}", seq2vis.per_call.summary()),
        format!(
            "synthesis replay: parse {:.3}s edits {:.3}s exec {:.3}s score {:.3}s nledit {:.3}s of {:.3}s wall",
            stage.parse_s, stage.edits_s, stage.exec_s, stage.score_s, stage.nledit_s, stage.wall_s
        ),
        format!("tracing overhead: traced {traced_s:.3}s vs untraced {plain_s:.3}s ({:+.2}%)", overhead * 100.0),
    ];
    notes.push("slowest synthesized pairs (us, db, pair id, SQL):".into());
    for (us, i) in pairs.slowest(10) {
        let p = &setup.corpus.pairs[i];
        notes.push(format!(
            "  {us:>10.1}  {}  pair {}  {}",
            p.db_name, p.id, p.sql
        ));
    }
    notes.push("slowest rendered vis (us, db, source pair id, VQL):".into());
    for (us, i) in render.per_vis.slowest(10) {
        let v = &cs.bench.vis_objects[i];
        notes.push(format!(
            "  {us:>10.1}  {}  pair {}  {}",
            v.db_name, v.source_pair_id, v.vql
        ));
    }
    notes.push("slowest decoded pairs (us, db, NL-VIS pair id, NL):".into());
    let bench = &setup.synthesis.bench;
    for (us, i) in seq2vis.per_call.slowest(10) {
        let p = &bench.pairs[i];
        let v = &bench.vis_objects[p.vis_id];
        notes.push(format!(
            "  {us:>10.1}  {}  pair {}  {}",
            v.db_name, p.pair_id, p.nl
        ));
    }
    LayerRun {
        metrics,
        checks,
        attempted,
        failed,
        notes,
    }
}
