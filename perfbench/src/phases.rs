//! Set-up and the four timed phases: synthesis, rendering, training and
//! evaluation. Each phase calls public entry points of the workspace crates
//! and returns its wall time, the work it did and a digest of its output.

use crate::stats::{Fnv, Latencies};
use nvbench::ast::{parse_vql, VisQuery};
use nvbench::baselines::{DeepEyeBaseline, Nl4DvBaseline};
use nvbench::core::{CorpusSynthesis, Nl2SqlToNl2Vis, Nl2VisPredictor, NvBench, SynthesizerConfig};
use nvbench::data::Database;
use nvbench::nn::{ModelVariant, Sample};
use nvbench::render::{chart_data, to_echarts, to_vega_lite};
use nvbench::seq2vis::{build_dataset, evaluate, fill_values, Dataset, Seq2Vis, Seq2VisConfig};
use nvbench::spider::{CorpusConfig, QueryGenConfig, SpiderCorpus};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Input sizes of one run.
#[derive(Debug, Clone)]
pub struct Scale {
    pub n_databases: usize,
    pub pairs_per_db: usize,
    pub train_samples: usize,
    pub val_samples: usize,
    pub train_epochs: usize,
    pub test_pairs: usize,
    /// Corpora per end-to-end run, each set up once; `setup_s` is the
    /// median of their set-up times.
    pub corpora: usize,
    /// The first corpora, on which training and evaluation also run.
    pub model_corpora: usize,
    /// Databases in the sub-corpus the sequential reference re-synthesizes.
    pub check_dbs: usize,
    /// Rendered vis re-executed by the reference interpreter.
    pub oracle_vis: usize,
    /// Samples in the naive-kernel training prefix.
    pub naive_samples: usize,
}

impl Scale {
    /// nvBench proportions: 100 databases × 35 (NL, SQL) pairs.
    pub fn full() -> Scale {
        Scale {
            n_databases: 100,
            pairs_per_db: 35,
            train_samples: 64,
            val_samples: 16,
            train_epochs: 1,
            test_pairs: 200,
            corpora: 8,
            model_corpora: 5,
            check_dbs: 6,
            oracle_vis: 150,
            naive_samples: 4,
        }
    }

    /// A few seconds of work, for the benchmark's own tests.
    pub fn tiny() -> Scale {
        Scale {
            n_databases: 4,
            pairs_per_db: 8,
            train_samples: 8,
            val_samples: 4,
            train_epochs: 1,
            test_pairs: 12,
            corpora: 2,
            model_corpora: 1,
            check_dbs: 2,
            oracle_vis: 12,
            naive_samples: 2,
        }
    }
}

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub synth_s: f64,
    pub dataset_s: f64,
    pub total_s: f64,
}

/// Everything the timed phases read: the seeded corpus, its synthesized
/// benchmark, the seq2vis dataset and the models under evaluation.
pub struct Setup {
    pub seed: u64,
    pub threads: usize,
    pub corpus: SpiderCorpus,
    pub synthesizer: Nl2SqlToNl2Vis,
    pub synthesis: CorpusSynthesis,
    pub dataset: Dataset,
    pub train_set: Vec<Sample>,
    pub val_set: Vec<Sample>,
    /// Benchmark pair indices the evaluation phase scores.
    pub test_idx: Vec<usize>,
    pub eval_model: Seq2Vis,
    pub nl4dv: Nl4DvBaseline,
    pub deepeye: DeepEyeBaseline,
    pub times: SetupTimes,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn corpus_config(seed: u64, scale: &Scale) -> CorpusConfig {
    CorpusConfig {
        n_databases: scale.n_databases,
        pairs_per_db: scale.pairs_per_db,
        seed,
        query_cfg: QueryGenConfig {
            n_pairs: scale.pairs_per_db,
            ..Default::default()
        },
    }
}

/// The model configuration of every seq2vis model the benchmark trains.
fn model_config(variant: ModelVariant, epochs: usize, seed: u64, threads: usize) -> Seq2VisConfig {
    Seq2VisConfig {
        max_epochs: epochs,
        // Early stopping never shortens the schedule, so every run trains
        // the same number of epochs.
        patience: epochs,
        seed,
        threads,
        ..Seq2VisConfig::new(variant)
    }
}

pub fn setup(seed: u64, scale: &Scale, threads: usize) -> Setup {
    let start = Instant::now();
    let t = Instant::now();
    let corpus = SpiderCorpus::generate(&corpus_config(seed, scale));
    let generate_s = secs(t);

    let synthesizer = Nl2SqlToNl2Vis::new(SynthesizerConfig {
        seed,
        threads,
        ..Default::default()
    });
    let t = Instant::now();
    let synthesis = synthesizer.synthesize_corpus(&corpus);
    let synth_s = secs(t);

    let t = Instant::now();
    let dataset = build_dataset(
        &synthesis.bench,
        Seq2VisConfig::new(ModelVariant::Basic).min_freq,
    );
    let dataset_s = secs(t);

    let split = synthesis.bench.split(seed);
    assert!(
        split.train.len() >= scale.train_samples
            && split.val.len() >= scale.val_samples
            && split.test.len() >= scale.test_pairs,
        "corpus too small for the scale: {} train / {} val / {} test pairs",
        split.train.len(),
        split.val.len(),
        split.test.len()
    );
    let train_set = dataset.subset(&split.train[..scale.train_samples]);
    let val_set = dataset.subset(&split.val[..scale.val_samples]);
    let test_idx = split.test[..scale.test_pairs].to_vec();

    // The evaluated seq2vis model is freshly initialised: it decodes to the
    // length limit on nearly every pair of every seed. After a short
    // training schedule, decode length (and so the work per pair) swings
    // tenfold from seed to seed.
    let eval_model = Seq2Vis::from_dataset(
        &dataset,
        model_config(ModelVariant::Basic, 1, seed, threads),
    );
    let nl4dv = Nl4DvBaseline::new();
    let deepeye = DeepEyeBaseline::new(seed);
    let times = SetupTimes {
        generate_s,
        synth_s,
        dataset_s,
        total_s: secs(start),
    };
    Setup {
        seed,
        threads,
        corpus,
        synthesizer,
        synthesis,
        dataset,
        train_set,
        val_set,
        test_idx,
        eval_model,
        nl4dv,
        deepeye,
        times,
    }
}

/// Digest of a corpus synthesis: every pair's pre-dedup digest (or its
/// quarantine) and the post-dedup benchmark size.
pub fn synthesis_digest(cs: &CorpusSynthesis) -> u64 {
    let mut h = Fnv::default();
    for d in &cs.pair_digests {
        h.u64(d.map_or(0, |d| d.wrapping_add(1)));
    }
    h.u64(cs.bench.vis_objects.len() as u64);
    h.u64(cs.bench.pairs.len() as u64);
    h.0
}

/// One `synthesize_corpus` over the whole corpus.
pub fn synthesize(setup: &Setup) -> (CorpusSynthesis, f64) {
    let t = Instant::now();
    let cs = setup.synthesizer.synthesize_corpus(&setup.corpus);
    (cs, secs(t))
}

#[derive(Debug, Clone)]
pub struct RenderRun {
    pub wall_s: f64,
    pub vis: usize,
    pub errors: usize,
    pub spec_bytes: usize,
    pub digest: u64,
    pub chart_data_s: f64,
    pub emit_s: f64,
    /// Per-vis chart data + emit time, tagged with the vis id.
    pub per_vis: Latencies,
}

/// One rendered vis: the digest of its specs (or error), their bytes
/// (`None` for an error), chart-data and emit seconds.
type Rendered = (u64, Option<usize>, f64, f64);

/// Render every kept vis to Vega-Lite and ECharts JSON text on `threads`
/// threads, each taking the next vis in turn. The executor runs cold here:
/// `chart_data` uses no cache. Each thread hashes and drops the text it
/// made, as an export would write it out; chart-data and emit times are
/// summed over the threads.
pub fn render(bench: &NvBench, threads: usize) -> RenderRun {
    let dbs: HashMap<&str, &Database> = bench
        .databases
        .iter()
        .map(|d| (d.name.as_str(), d))
        .collect();
    let targets: Vec<(&Database, &VisQuery)> = bench
        .vis_objects
        .iter()
        .map(|v| (dbs[v.db_name.as_str()], &v.tree))
        .collect();
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut out: Vec<(usize, Rendered)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((db, tree)) = targets.get(i) else {
                return out;
            };
            let t0 = Instant::now();
            let data = chart_data(db, tree);
            let t1 = Instant::now();
            let spec = match data {
                Ok(cd) => Ok((to_vega_lite(&cd).to_string(), to_echarts(&cd).to_string())),
                Err(e) => Err(e.to_string()),
            };
            let t2 = Instant::now();
            let mut h = Fnv::default();
            let bytes = match &spec {
                Ok((vl, ec)) => {
                    h.str(vl);
                    h.str(ec);
                    Some(vl.len() + ec.len())
                }
                Err(e) => {
                    h.str(e);
                    None
                }
            };
            out.push((
                i,
                (h.0, bytes, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()),
            ));
        }
    };

    let t = Instant::now();
    let mut rendered: Vec<(usize, Rendered)> = if threads <= 1 {
        worker()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("render worker panicked"))
                .collect()
        })
    };
    let wall_s = secs(t);
    rendered.sort_unstable_by_key(|r| r.0);

    let mut h = Fnv::default();
    let (mut errors, mut spec_bytes) = (0, 0);
    let (mut chart_data_s, mut emit_s, mut per_vis) = (0.0, 0.0, Latencies::default());
    for &(i, (digest, bytes, cd_s, em_s)) in &rendered {
        h.u64(digest);
        match bytes {
            Some(b) => spec_bytes += b,
            None => errors += 1,
        }
        chart_data_s += cd_s;
        emit_s += em_s;
        per_vis.push((cd_s + em_s) * 1e6, i);
    }
    RenderRun {
        wall_s,
        vis: rendered.len(),
        errors,
        spec_bytes,
        digest: h.0,
        chart_data_s,
        emit_s,
        per_vis,
    }
}

#[derive(Debug, Clone)]
pub struct VariantRun {
    pub variant: ModelVariant,
    pub secs: f64,
}

#[derive(Debug, Clone)]
pub struct TrainRun {
    /// Time inside `train_on`, summed over the variants.
    pub wall_s: f64,
    /// The whole phase, model construction included.
    pub phase_s: f64,
    /// Source + target (+ EOS) tokens through forward and backward.
    pub tokens: usize,
    pub epochs: usize,
    pub nonfinite: usize,
    pub variants: Vec<VariantRun>,
    pub digest: u64,
}

/// Train each seq2vis variant from its seeded initialisation on the fixed
/// train/val subset for a fixed number of epochs.
pub fn train(setup: &Setup, scale: &Scale) -> TrainRun {
    let epochs = scale.train_epochs;
    let start = Instant::now();
    let per_epoch: usize = setup
        .train_set
        .iter()
        .map(|s| s.src.len() + s.tgt.len() + 1)
        .sum();
    let mut variants = Vec::new();
    let mut h = Fnv::default();
    let mut nonfinite = 0;
    for variant in ModelVariant::ALL {
        let mut model = Seq2Vis::from_dataset(
            &setup.dataset,
            model_config(variant, epochs, setup.seed, setup.threads),
        );
        let t = Instant::now();
        let report = model.train_on(&setup.train_set, &setup.val_set);
        let secs = secs(t);
        for l in report.train_losses.iter().chain(&report.val_losses) {
            h.u64(u64::from(l.to_bits()));
        }
        nonfinite += report
            .train_losses
            .iter()
            .filter(|l| !l.is_finite())
            .count();
        variants.push(VariantRun { variant, secs });
    }
    TrainRun {
        wall_s: variants.iter().map(|v| v.secs).sum(),
        phase_s: secs(start),
        tokens: per_epoch * epochs * variants.len(),
        epochs: epochs * variants.len(),
        nonfinite,
        variants,
        digest: h.0,
    }
}

enum Inner<'a> {
    Seq2Vis(&'a Seq2Vis),
    Baseline(&'a dyn Nl2VisPredictor),
}

/// Wraps a predictor to time its calls, count decoded tokens and catch
/// panics, so `evaluate`'s own time (normalisation, tree match, result
/// execution) is what remains.
struct Timed<'a> {
    inner: Inner<'a>,
    name: String,
    predict_s: Cell<f64>,
    panics: Cell<usize>,
    tokens: Cell<u64>,
    per_call: RefCell<Latencies>,
}

impl<'a> Timed<'a> {
    fn new(inner: Inner<'a>) -> Timed<'a> {
        let name = match &inner {
            Inner::Seq2Vis(m) => m.name(),
            Inner::Baseline(p) => p.name(),
        };
        Timed {
            inner,
            name,
            predict_s: Cell::new(0.0),
            panics: Cell::new(0),
            tokens: Cell::new(0),
            per_call: RefCell::new(Latencies::default()),
        }
    }
}

impl Nl2VisPredictor for Timed<'_> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn predict(&self, nl: &str, db: &Database) -> Option<VisQuery> {
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| match self.inner {
            // `Seq2Vis::predict` step by step, to count decoded tokens.
            Inner::Seq2Vis(m) => {
                let masked = m.predict_tokens(nl, db);
                self.tokens.set(self.tokens.get() + masked.len() as u64);
                parse_vql(&fill_values(&masked, nl)).ok()
            }
            Inner::Baseline(p) => p.predict(nl, db),
        }));
        let s = secs(t);
        self.predict_s.set(self.predict_s.get() + s);
        let mut calls = self.per_call.borrow_mut();
        let call = calls.samples.len();
        calls.push(s * 1e6, call);
        out.unwrap_or_else(|_| {
            self.panics.set(self.panics.get() + 1);
            None
        })
    }
}

/// One predictor's share of an evaluation pass.
#[derive(Debug, Clone, Default)]
pub struct PredictorRun {
    /// Wall time of the whole `evaluate` call.
    pub evaluate_s: f64,
    /// Time inside the predictor's `predict`.
    pub predict_s: f64,
    pub panics: usize,
    pub tokens: u64,
    /// Per-call predict time, tagged with the benchmark pair index.
    pub per_call: Latencies,
}

#[derive(Debug, Clone)]
pub struct EvalRun {
    pub wall_s: f64,
    pub evals: usize,
    pub panics: usize,
    pub predictors: Vec<PredictorRun>,
    pub digest: u64,
}

/// `nv_seq2vis::evaluate` for seq2vis, NL4DV and DeepEye over the test pairs.
pub fn eval(setup: &Setup) -> EvalRun {
    let bench = &setup.synthesis.bench;
    let mut predictors = Vec::new();
    let mut h = Fnv::default();
    for inner in [
        Inner::Seq2Vis(&setup.eval_model),
        Inner::Baseline(&setup.nl4dv),
        Inner::Baseline(&setup.deepeye),
    ] {
        let timed = Timed::new(inner);
        let t = Instant::now();
        let report = evaluate(&timed, bench, &setup.test_idx);
        let evaluate_s = secs(t);
        h.str(&report.system);
        for case in &report.cases {
            h.str(&format!("{case:?}"));
        }
        let mut per_call = timed.per_call.into_inner();
        for s in &mut per_call.samples {
            s.1 = setup.test_idx[s.1];
        }
        predictors.push(PredictorRun {
            evaluate_s,
            predict_s: timed.predict_s.get(),
            panics: timed.panics.get(),
            tokens: timed.tokens.get(),
            per_call,
        });
    }
    EvalRun {
        wall_s: predictors.iter().map(|p| p.evaluate_s).sum(),
        evals: predictors.len() * setup.test_idx.len(),
        panics: predictors.iter().map(|p| p.panics).sum(),
        predictors,
        digest: h.0,
    }
}
