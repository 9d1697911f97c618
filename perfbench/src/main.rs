//! Runs one benchmark workload and prints its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload retail-join --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced closed loop;
//! `--trace 1` prints the per-layer metrics of the traced loop and writes
//! its spans to `.perfbench/trace/<workload>-seed<seed>.jsonl`. The last
//! line of standard output is the JSON result. A failed workload guard
//! exits with code 2 and prints no result.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::{
    check_guards, result_json, run_timed, run_traced, select, setup, Prepared, Spec, END_TO_END,
    PER_LAYER, SETUP_MIN_REPS, SPILL_REFERENCE, WORKLOADS, WORK_DIR,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} needs a value", pair[0]));
        };
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let spec = Spec::named(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {}; choose one of {WORKLOADS:?}",
            args.workload
        )
    })?;
    let dir = Path::new(WORK_DIR);
    let spill_dir = dir.join("spill");
    std::fs::create_dir_all(&spill_dir).map_err(|e| format!("{}: {e}", spill_dir.display()))?;

    let mut p = Prepared::new(&spec, args.seed, &spill_dir);
    println!(
        "workload {}: {} input tuples, {} output pairs, seed {}",
        spec.name,
        p.n_input(),
        p.expected_count,
        args.seed
    );
    let s = setup(&p, SETUP_MIN_REPS);
    p.check_batch_oracle(&s.rt)?;
    check_guards(&p, &s.rt, &s.warm).map_err(|e| format!("guard of {}: {e}", spec.name))?;
    println!(
        "guards passed: {} regions, {} spill bytes, wire reference answers; checksum {}",
        s.warm.num_regions,
        s.warm.join.spill_bytes,
        match p.expected_checksum {
            Some(_) => "compared with one batch run",
            None => "not compared (Count mode folds none)",
        }
    );

    let seconds = Duration::from_secs(args.seconds);
    let line = if args.trace {
        let sp_spec = Spec::named(SPILL_REFERENCE).expect("the spill reference is a named spec");
        let sp = Prepared::new(&sp_spec, args.seed, &spill_dir);
        check_guards(&sp, &s.rt, &sp.run(&s.rt))
            .map_err(|e| format!("guard of the spill reference {SPILL_REFERENCE}: {e}"))?;
        let t = run_traced(&p, &sp, &s, seconds);
        let path = dir
            .join("trace")
            .join(format!("{}-seed{}.jsonl", spec.name, args.seed));
        t.trace
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let metrics = select(&PER_LAYER, &t.metrics)?;
        let m = |name| t.metrics[name];
        println!(
            "{} traced queries, {} spans in {}; of the traced query: stats.build {:.0}%, \
             engine.join {:.0}%, bsp setup {:.1}%; of the spill reference query: \
             spill write+reload {:.0}%",
            t.traced_queries,
            t.trace.spans().len(),
            path.display(),
            100.0 * m("stats.build_s") / m("trace.query_s"),
            100.0 * m("engine.join_s") / m("trace.query_s"),
            100.0 * m("tiling.bsp_setup_s") / m("trace.query_s"),
            100.0 * (m("spill.write_s") + m("spill.reload_s")) / m("spill.query_s"),
        );
        result_json(t.tally, &metrics)
    } else {
        let t = run_timed(&p, &s, seconds);
        println!(
            "{} queries; wall clock (not bounded): p50 {:.4} s, p{:.1} {:.4} s",
            t.samples, t.wall_p50, t.wall_tail.1, t.wall_tail.0
        );
        result_json(t.tally, &select(&END_TO_END, &t.metrics)?)
    };
    // Every query's spill directory is gone with its ticket; this removes
    // the parent the run created.
    let _ = std::fs::remove_dir(&spill_dir);
    Ok(line)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
