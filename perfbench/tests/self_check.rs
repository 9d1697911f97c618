//! Self-check of the benchmark at a small scale: every workload passes its
//! guards, answers correctly and emits every declared metric, in both the
//! timed and the traced loop; `BENCHMARK.json` declares exactly the
//! metrics and workloads the program emits; and a guard can trip.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::time::Duration;

use perfbench::{
    check_guards, run_timed, run_traced, select, setup, Prepared, Spec, END_TO_END, PER_LAYER,
    SPILL_REFERENCE, WORKLOADS,
};

/// Data (and spill budget) scale of the self-check relative to the
/// benchmark's workloads.
const SMALL: f64 = 0.125;

fn spill_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("create the spill directory");
    dir
}

fn prepared(spec: &Spec, test: &str) -> (Prepared, perfbench::Setup) {
    let mut p = Prepared::new(spec, 7, &spill_dir(test));
    let s = setup(&p, 1);
    p.check_batch_oracle(&s.rt).expect("batch oracle agrees");
    (p, s)
}

#[test]
fn every_workload_passes_its_guards_and_emits_every_metric() {
    let sp_spec = Spec::named(SPILL_REFERENCE)
        .expect("the spill reference")
        .scaled(SMALL);
    let (sp, sp_setup) = prepared(&sp_spec, SPILL_REFERENCE);
    check_guards(&sp, &sp_setup.rt, &sp_setup.warm).expect("the spill reference spills");
    for name in WORKLOADS {
        let spec = Spec::named(name).expect("declared workload").scaled(SMALL);
        let (p, s) = prepared(&spec, name);
        check_guards(&p, &s.rt, &s.warm).unwrap_or_else(|e| panic!("{name}: {e}"));

        let timed = run_timed(&p, &s, Duration::ZERO);
        assert_eq!(timed.tally.failed, 0, "{name}");
        let e2e = select(&END_TO_END, &timed.metrics).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(e2e.iter().all(|&(_, v, _)| v > 0.0), "{name}: {e2e:?}");

        let traced = run_traced(&p, &sp, &s, Duration::ZERO);
        assert_eq!(traced.tally.failed, 0, "{name}");
        select(&PER_LAYER, &traced.metrics).unwrap_or_else(|e| panic!("{name}: {e}"));
        let root = traced
            .trace
            .spans()
            .iter()
            .position(|sp| sp.name == "query")
            .expect("a query span");
        assert!(traced.trace.self_time(root) >= 0.0);
    }
}

#[test]
fn spill_guard_trips_without_a_budget() {
    let spec = Spec {
        spill_budget_tuples: None,
        ..Spec::named(SPILL_REFERENCE)
            .expect("declared")
            .scaled(SMALL)
    };
    let (p, s) = prepared(&spec, "no-budget");
    let err = check_guards(&p, &s.rt, &s.warm).expect_err("an unbudgeted spill workload must trip");
    assert!(err.contains("must spill"), "{err}");
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for name in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
