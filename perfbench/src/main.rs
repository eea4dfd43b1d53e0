//! nv-perfbench — the end-to-end and per-layer benchmark of nvBench-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <synth|train> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets up seeded inputs: an nvBench-shaped corpus
//! (`SpiderCorpus::generate`), its synthesis and the seq2vis dataset,
//! once per corpus; the seed gives several corpora (`setup_s` is the
//! median). Every run reports every end-to-end metric, so every phase runs
//! in every workload: synthesis and rendering on every corpus, training and
//! evaluation (`nv_seq2vis::evaluate` for seq2vis, NL4DV and DeepEye) on the
//! first few. The workload names the phase that repeats until `--seconds`
//! of timed work are spent over the run:
//!
//! * `synth` — `synthesize_corpus` (warm per-database executor caches) and
//!   rendering of every kept vis (cold, uncached executor);
//! * `train` — `Seq2Vis::train_on` for the three model variants.
//!
//! With `--trace 0`, tracing stays disarmed while timing and the run prints
//! the end-to-end metrics. With `--trace 1` it prints the per-layer metrics
//! of the traced run instead (see `layers`). Either way, outputs are checked
//! after timing: digests must repeat across repetitions and independent
//! references must agree (see `checks`). The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
//! the run exits with 1 if any check failed.

mod checks;
mod heap;
mod layers;
mod phases;
mod stats;

use nvbench::core::{CorpusSynthesis, NvBench};
use phases::{Scale, Setup};
use stats::median;
use std::time::Instant;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: String) -> Check {
        Check {
            name: name.into(),
            ok,
            detail,
        }
    }

    /// All digests equal.
    pub fn same(name: impl Into<String>, digests: &[u64]) -> Check {
        let ok = digests.windows(2).all(|w| w[0] == w[1]);
        let shown: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
        Check::new(name, ok, shown.join(" "))
    }
}

/// A timed phase. The workloads `synth` and `train` name the phase that
/// repeats; evaluation runs as a phase of both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Synth,
    Train,
    Eval,
}

impl Phase {
    /// The phase a `--workload` name repeats.
    fn workload(s: &str) -> Option<Phase> {
        match s {
            "synth" => Some(Phase::Synth),
            "train" => Some(Phase::Train),
            _ => None,
        }
    }
}

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Output digest of each phase, for comparing runs.
    pub digests: Vec<(&'static str, u64)>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Samples of one phase.
#[derive(Default)]
struct Tally {
    rates: Vec<f64>,
    walls: Vec<f64>,
    /// Units of work of one repetition; the same for every repetition.
    work: f64,
    digests: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, work: usize, wall: f64, digest: u64, attempted: usize, failed: usize) {
        self.rates.push(work as f64 / wall);
        self.walls.push(wall);
        self.work = work as f64;
        self.digests.push(digest);
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    fn add_synthesis(&mut self, cs: &CorpusSynthesis, wall: f64) {
        let pairs = cs.pair_digests.len();
        self.add(
            pairs,
            wall,
            phases::synthesis_digest(cs),
            pairs,
            cs.quarantine.len(),
        );
    }
}

/// The phases' samples on one corpus.
#[derive(Default)]
struct Block {
    synth: Tally,
    render: Tally,
    train: Tally,
    eval: Tally,
}

impl Block {
    fn tallies(&self) -> [(&'static str, &Tally); 4] {
        [
            ("synth", &self.synth),
            ("render", &self.render),
            ("train", &self.train),
            ("eval", &self.eval),
        ]
    }

    /// Runs `phase` once; `synth` renders the vis it synthesized. Returns
    /// the timed seconds.
    fn run(&mut self, phase: Phase, setup: &Setup, scale: &Scale) -> f64 {
        match phase {
            Phase::Synth => {
                let (cs, wall) = phases::synthesize(setup);
                self.synth.add_synthesis(&cs, wall);
                wall + self.run_render(&cs.bench, setup.threads)
            }
            Phase::Train => {
                let t = phases::train(setup, scale);
                self.train
                    .add(t.tokens, t.wall_s, t.digest, t.epochs, t.nonfinite);
                t.wall_s
            }
            Phase::Eval => {
                let e = phases::eval(setup);
                self.eval
                    .add(e.evals, e.wall_s, e.digest, e.evals, e.panics);
                e.wall_s
            }
        }
    }

    fn run_render(&mut self, bench: &NvBench, threads: usize) -> f64 {
        let r = phases::render(bench, threads);
        self.render.add(r.vis, r.wall_s, r.digest, r.vis, r.errors);
        r.wall_s
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`), for the report.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The corpus seed of block `b` of a run with seed `seed`.
pub fn block_seed(seed: u64, b: usize) -> u64 {
    stats::mix(seed, b as u64)
}

/// The `--trace 0` run: end-to-end metrics with tracing disarmed.
///
/// The seed gives `scale.corpora` corpora, each set up once (timed for
/// `setup_s`). On every corpus the workload's own phase runs and the
/// synthesized vis are rendered; training and evaluation run on the first
/// `scale.model_corpora`. The own phase then repeats until its share of
/// `seconds` of timed work is spent. Each rate is the work of all corpora
/// over the sum of each corpus's median repetition: render and synthesis
/// cost swing by a third between corpora (a tenth of the databases take
/// half the render time), so many corpora, not repetitions of one, steady
/// the figures. The last corpus also gets a traced repetition of the own
/// phase and the reference checks.
pub fn end_to_end(
    workload: Phase,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    threads: usize,
) -> Outcome {
    let n = scale.corpora.max(1);
    let others: Vec<Phase> = [Phase::Synth, Phase::Train, Phase::Eval]
        .into_iter()
        .filter(|w| *w != workload)
        .collect();
    let (mut blocks, mut setup_times, mut checks) = (Vec::new(), Vec::new(), Vec::new());
    let mut heap_peaks = Vec::new();
    let (mut timed_s, mut overhead_note) = (0.0, String::new());
    for b in 0..n {
        let heap_base = heap::reset_peak();
        let setup = phases::setup(block_seed(seed, b), scale, threads);
        setup_times.push(setup.times);
        let mut block = Block::default();
        if workload != Phase::Synth {
            // Outside the synth workload, synthesis is timed in set-up.
            block
                .synth
                .add_synthesis(&setup.synthesis, setup.times.synth_s);
        }
        timed_s += block.run(workload, &setup, scale);
        for &phase in &others {
            timed_s += match phase {
                Phase::Synth => block.run_render(&setup.synthesis.bench, threads),
                _ if b < scale.model_corpora.max(1) => block.run(phase, &setup, scale),
                _ => 0.0,
            };
        }
        while timed_s < seconds * (b + 1) as f64 / n as f64 {
            timed_s += block.run(workload, &setup, scale);
        }
        heap_peaks.push(heap::peak_above_mib(heap_base));
        if b + 1 == n {
            // One more repetition of the own phase with tracing armed: its
            // output must not change, and its wall time gives the overhead.
            let untraced: Vec<f64> = match workload {
                Phase::Synth => block
                    .synth
                    .walls
                    .iter()
                    .zip(&block.render.walls)
                    .map(|(a, b)| a + b)
                    .collect(),
                Phase::Train => block.train.walls.clone(),
                Phase::Eval => block.eval.walls.clone(),
            };
            nvbench::trace::reset();
            nvbench::trace::enable();
            let mut traced = Block::default();
            let traced_s = traced.run(workload, &setup, scale);
            nvbench::trace::disable();
            nvbench::trace::reset();
            for (mine, theirs) in [
                (&mut block.synth, &traced.synth),
                (&mut block.render, &traced.render),
                (&mut block.train, &traced.train),
                (&mut block.eval, &traced.eval),
            ] {
                mine.digests.extend(&theirs.digests);
            }
            let untraced_s = median(&untraced);
            overhead_note = format!(
                "tracing overhead ({workload:?} phase): traced {traced_s:.3}s vs untraced median {untraced_s:.3}s ({:+.2}%)",
                (traced_s / untraced_s - 1.0) * 100.0
            );
            let t = Instant::now();
            checks.extend(checks::run(&setup, scale));
            overhead_note.push_str(&format!(
                "; reference checks {:.3}s",
                t.elapsed().as_secs_f64()
            ));
        }
        for (name, t) in block.tallies() {
            if t.digests.len() > 1 {
                checks.push(Check::same(
                    format!("{name} digest: repetitions on corpus {b}"),
                    &t.digests,
                ));
            }
        }
        blocks.push(block);
    }

    // All corpora's work over the sum of each corpus's median repetition,
    // over the corpora the phase ran on.
    let rate = |i: usize| {
        let (work, wall) = blocks
            .iter()
            .map(|b| b.tallies()[i].1)
            .filter(|t| !t.walls.is_empty())
            .fold((0.0, 0.0), |(w, s), t| (w + t.work, s + median(&t.walls)));
        work / wall
    };
    let setup_s = median(&setup_times.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let heap_mib = median(&heap_peaks);
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("synth_pairs_per_s", rate(0), "pairs/s"),
        Metric::new("render_vis_per_s", rate(1), "vis/s"),
        Metric::new("train_tokens_per_s", rate(2), "tokens/s"),
        Metric::new("eval_pairs_per_s", rate(3), "evals/s"),
        Metric::new("peak_heap_mb", heap_mib, "MiB"),
    ];
    let step =
        |f: fn(&phases::SetupTimes) -> f64| median(&setup_times.iter().map(f).collect::<Vec<_>>());
    let mut notes = vec![format!(
        "set-up x{n}: median {setup_s:.3}s (generate {:.3}s, synthesize {:.3}s, dataset {:.3}s)",
        step(|t| t.generate_s),
        step(|t| t.synth_s),
        step(|t| t.dataset_s),
    )];
    for (i, name) in ["synth", "render", "train", "eval"].into_iter().enumerate() {
        let per_corpus: Vec<String> = blocks
            .iter()
            .map(|b| {
                let rates: Vec<String> = b.tallies()[i]
                    .1
                    .rates
                    .iter()
                    .map(|r| format!("{r:.1}"))
                    .collect();
                format!("[{}]", rates.join(" "))
            })
            .collect();
        notes.push(format!(
            "{name}: pooled {:.1}/s; per corpus {}",
            rate(i),
            per_corpus.join(" ")
        ));
    }
    let shown: Vec<String> = heap_peaks.iter().map(|p| format!("{p:.1}")).collect();
    notes.push(format!(
        "peak heap: median {heap_mib:.1} MiB; per corpus [{}]; peak resident set {:.1} MiB",
        shown.join(" "),
        peak_rss_mib()
    ));
    notes.push(format!("timed work {timed_s:.3}s over {n} corpora"));
    notes.push(overhead_note);
    let (mut attempted, mut failed) = (0, 0);
    for (_, t) in blocks.iter().flat_map(|b| b.tallies()) {
        attempted += t.attempted;
        failed += t.failed;
    }
    let digests = blocks[0]
        .tallies()
        .map(|(name, t)| (name, t.digests[0]))
        .to_vec();
    Outcome {
        attempted,
        failed,
        metrics,
        checks,
        digests,
        notes,
    }
}

/// The `--trace 1` run: per-layer metrics from the traced run, on the
/// first corpus of the seed.
pub fn per_layer(seed: u64, scale: &Scale, threads: usize) -> Outcome {
    let setup = phases::setup(block_seed(seed, 0), scale, threads);
    let run = layers::run(&setup, scale);
    let mut checks = run.checks;
    checks.extend(checks::run(&setup, scale));
    let digests = vec![("synth", phases::synthesis_digest(&setup.synthesis))];
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: run.metrics,
        checks,
        digests,
        notes: run.notes,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |s| s.trim().to_string(),
        )
}

struct Args {
    workload: Phase,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Phase::workload(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nv-perfbench: {e}");
            eprintln!("usage: nv-perfbench --workload <synth|train> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc;
    let scale = Scale::full();
    println!(
        "# nv-perfbench workload={:?} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# nproc={nproc} threads={threads} profile={} commit={} corpus={}x{} pairs",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_commit(),
        scale.n_databases,
        scale.pairs_per_db
    );
    let outcome = if args.trace {
        per_layer(args.seed, &scale, threads)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, &scale, threads)
    };
    for n in &outcome.notes {
        println!("# {n}");
    }
    for (phase, d) in &outcome.digests {
        println!("# digest {phase} {d:016x}");
    }
    for c in &outcome.checks {
        println!(
            "# check {} {}: {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    println!("{}", result_line(&outcome));
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod selftest;
