//! Independent references the run's outputs must agree with. They run
//! after the timed phases and outside set-up.

use crate::phases::{Scale, Setup};
use crate::stats::{mix, pick};
use crate::Check;
use nvbench::core::{Nl2SqlToNl2Vis, NvBench, SynthesizerConfig};
use nvbench::data::execute;
use nvbench::nn::{KernelPolicy, ModelVariant, Seq2Seq, Seq2SeqConfig};
use nvbench::oracle::oracle_execute;
use nvbench::seq2vis::vocab::{BOS, EOS};
use nvbench::seq2vis::Seq2VisConfig;
use nvbench::spider::SpiderCorpus;

pub fn run(setup: &Setup, scale: &Scale) -> Vec<Check> {
    vec![
        sequential_matches_parallel(setup, scale),
        oracle_matches_executor(&setup.synthesis.bench, setup.seed, scale.oracle_vis),
        naive_kernels_match_fast(setup, scale),
    ]
}

/// `synthesize_corpus_sequential` (one thread, no cache) and
/// `synthesize_corpus` agree on a seeded sub-corpus.
fn sequential_matches_parallel(setup: &Setup, scale: &Scale) -> Check {
    let corpus = &setup.corpus;
    let dbs = pick(mix(setup.seed, 1), corpus.databases.len(), scale.check_dbs);
    let databases: Vec<_> = dbs.iter().map(|&i| corpus.databases[i].clone()).collect();
    let pairs = corpus
        .pairs
        .iter()
        .filter(|p| databases.iter().any(|d| d.name == p.db_name))
        .cloned()
        .collect();
    let sub = SpiderCorpus { databases, pairs };
    let cfg = SynthesizerConfig {
        seed: setup.seed,
        threads: setup.threads,
        ..Default::default()
    };
    let synthesizer = Nl2SqlToNl2Vis::new(cfg);
    let fast = synthesizer.synthesize_corpus(&sub);
    let reference = synthesizer.synthesize_corpus_sequential(&sub);
    let vql = |b: &NvBench| {
        b.vis_objects
            .iter()
            .map(|v| v.vql.clone())
            .collect::<Vec<_>>()
    };
    let same = fast.pair_digests == reference.pair_digests
        && fast.bench.pairs == reference.bench.pairs
        && vql(&fast.bench) == vql(&reference.bench);
    Check::new(
        "synthesize_corpus equals synthesize_corpus_sequential",
        same,
        format!("{} pairs over databases {dbs:?}", sub.pairs.len()),
    )
}

/// The reference interpreter and the executor give the same result on a
/// seeded sample of the kept vis.
fn oracle_matches_executor(bench: &NvBench, seed: u64, n: usize) -> Check {
    let sample = pick(mix(seed, 2), bench.vis_objects.len(), n);
    let mut mismatches = Vec::new();
    for &i in &sample {
        let v = &bench.vis_objects[i];
        let db = bench.database(&v.db_name).expect("vis database exists");
        let agree = match (execute(db, &v.tree), oracle_execute(db, &v.tree)) {
            (Ok(a), Ok(b)) => a.multiset_eq(&b),
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !agree {
            mismatches.push(format!("{} vis {}: {}", v.db_name, v.vis_id, v.vql));
        }
    }
    Check::new(
        "oracle_execute agrees with execute",
        mismatches.is_empty(),
        format!("{} vis sampled; mismatches: {mismatches:?}", sample.len()),
    )
}

/// A short training prefix with the naive kernels matches the fast kernels
/// bit for bit, for every variant: losses and parameters.
fn naive_kernels_match_fast(setup: &Setup, scale: &Scale) -> Check {
    let samples = &setup.train_set[..scale.naive_samples.min(setup.train_set.len())];
    let mut diverged = Vec::new();
    for variant in ModelVariant::ALL {
        // The configuration `Seq2Vis` gives its model, with the kernel swapped.
        let model = |kernel| {
            let c = Seq2VisConfig::new(variant);
            Seq2Seq::new(Seq2SeqConfig {
                vocab: setup.dataset.vocab.len(),
                embed_dim: c.embed_dim,
                hidden: c.hidden,
                variant,
                seed: setup.seed,
                lr: c.lr,
                clip: 2.0,
                batch: c.batch,
                bos: BOS,
                eos: EOS,
                max_decode_len: 80,
                threads: setup.threads,
                kernel,
            })
        };
        let (mut fast, mut naive) = (model(KernelPolicy::Fast), model(KernelPolicy::NaiveOracle));
        let lf = fast.train_epoch(samples).to_bits();
        let ln = naive.train_epoch(samples).to_bits();
        if lf != ln || fast.params_checksum() != naive.params_checksum() {
            diverged.push(variant.name());
        }
    }
    Check::new(
        "NaiveOracle kernels match Fast bit for bit",
        diverged.is_empty(),
        format!(
            "{} samples, one step per variant; diverged: {diverged:?}",
            samples.len()
        ),
    )
}
