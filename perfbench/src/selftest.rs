//! The benchmark's own tests, at a tiny scale: every metric the benchmark
//! declares is reported, finite and in its unit; counters repeat for a
//! seed and across thread counts; the seed reaches the inputs.

use crate::layers::DETERMINISTIC_COUNTERS;
use crate::phases::Scale;
use crate::{end_to_end, per_layer, Outcome, Phase};
use std::sync::Mutex;

/// nv-trace state is process-wide, so runs must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

const WORKLOADS: [Phase; 2] = [Phase::Synth, Phase::Train];

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn spec() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of each metric of one kind in BENCHMARK.json.
fn declared(kind: &str) -> Vec<(String, String)> {
    let spec = spec();
    let list = spec[kind].as_array().expect("metric list");
    list.iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn reported(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn assert_sound(o: &Outcome, what: &str) {
    for c in &o.checks {
        assert!(c.ok, "{what}: check '{}' failed: {}", c.name, c.detail);
    }
    for m in &o.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
    assert!(
        o.attempted > 0 && o.failed == 0,
        "{what}: {} of {} failed",
        o.failed,
        o.attempted
    );
}

#[test]
fn every_declared_metric_is_reported_in_its_unit() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (e2e, layer) = (declared("end_to_end"), declared("per_layer"));
    let workloads = spec()["workloads"].as_array().expect("workload list").len();
    assert_eq!(workloads, WORKLOADS.len());
    for w in WORKLOADS {
        let o = end_to_end(w, 3, 0.01, &Scale::tiny(), nproc());
        assert_sound(&o, &format!("{w:?} end to end"));
        assert_eq!(
            reported(&o),
            e2e,
            "{w:?}: end-to-end metrics differ from BENCHMARK.json"
        );
    }
    let o = per_layer(3, &Scale::tiny(), nproc());
    assert_sound(&o, "per layer");
    assert_eq!(
        reported(&o),
        layer,
        "per-layer metrics differ from BENCHMARK.json"
    );
}

#[test]
fn counters_repeat_for_a_seed_and_across_thread_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let counters = |threads: usize| {
        let o = per_layer(5, &Scale::tiny(), threads);
        assert_sound(&o, &format!("threads={threads}"));
        DETERMINISTIC_COUNTERS
            .iter()
            .map(|name| {
                let m = o
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .expect("counter reported");
                (name.to_string(), m.value)
            })
            .collect::<Vec<_>>()
    };
    let first = counters(nproc());
    assert!(first.iter().all(|(_, v)| *v > 0.0), "{first:?}");
    assert_eq!(first, counters(nproc()), "two runs of one seed");
    assert_eq!(first, counters(1), "threads = 1 against threads = nproc");
}

#[test]
fn the_seed_reaches_the_inputs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let digests = |seed| end_to_end(Phase::Synth, seed, 0.01, &Scale::tiny(), nproc()).digests;
    let (a, b) = (digests(1), digests(2));
    assert_eq!(a, digests(1), "one seed, two runs");
    for ((phase, x), (_, y)) in a.iter().zip(&b) {
        assert_ne!(x, y, "{phase} digest ignores the seed");
    }
}
