//! End-to-end query benchmark for the equi-weight-histogram join.
//!
//! Every workload runs CSIO with J = 32 on the pipelined engine, one query
//! in flight at a time (a single closed-loop client) on a shared
//! [`EngineRuntime`] of [`WORKERS`] worker with `OperatorConfig::threads =
//! TASKS`, i.e. one mapper task and one reducer task. Because only one
//! query runs, each query's `RuntimeMetrics` delta belongs to it alone.
//!
//! A run has three phases:
//! 1. *prepare*: generate both relations from the seed through
//!    `ewh_bench::workloads` and compute the exact output count with
//!    `JoinMatrix::output_count`, which does not use the engine;
//! 2. *set-up* ([`setup`]): build the runtime and run one untimed warm-up
//!    query, several times ([`SETUP_MIN_REPS`], [`SETUP_SECONDS`]); then
//!    the oracle batch run and the workload guards ([`check_guards`]);
//! 3. *measure*: the timed loop ([`run_timed`], end-to-end metrics, no
//!    tracing) or the traced loop ([`run_traced`], per-layer metrics),
//!    which issues the same query as a sequence of timed public calls,
//!    followed by reference queries for the layers that have no workload
//!    of their own (transport and spill).
//!
//! `perfbench/WORKLOADS.md` records why each workload exists and which
//! end-to-end metric each per-layer metric should move.

pub mod trace;

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use ewh_bench::{bicd, retail_hotkey, Workload};
use ewh_core::histogram::{build_sample_matrix, coarsen_sample_matrix, regionalize};
use ewh_core::{HistogramParams, JoinMatrix, Key, SchemeKind, Tuple, TUPLE_BYTES};
use ewh_exec::{
    assign_regions, build_scheme, execute_join, execute_join_pipelined, run_operator, shuffle,
    EngineRuntime, ExecMode, JoinStats, MorselPlan, OperatorConfig, OperatorRun, OutputWork,
    SpillConfig, SpillContext, TransportConfig,
};
use ewh_tiling::MonotonicBspSolver;

use trace::{SpanId, Trace};

/// Pool workers. One: the mapper and reducer tasks share a single worker
/// thread, so a query needs one vCPU, not two, and the host taking time
/// away from either vCPU does not stall the pipeline.
pub const WORKERS: usize = 1;
/// `OperatorConfig::threads`: the per-query task budget (one mapper task,
/// one reducer task) and the histogram's sampling jobs.
pub const TASKS: usize = 2;
/// Regions the histogram builds (the paper's J).
pub const J: usize = 32;
/// Set-ups per run: at least this many, and more while the set-ups so far
/// took less than [`SETUP_SECONDS`] of CPU time; `setup_s` reports their
/// median.
pub const SETUP_MIN_REPS: usize = 3;
pub const SETUP_SECONDS: f64 = 2.0;
/// A tail percentile needs at least this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// End-to-end metrics, `(name, unit)`, in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("query_cpu_s.p50", "s"),
    ("throughput_tuples_per_cpu_s", "tuples/s"),
    ("peak_resident_mib", "MiB"),
    ("max_weight", "milli-units"),
    ("network_tuples", "tuples"),
    ("setup_s", "s"),
    ("correct_share", "ratio"),
];

/// Per-layer metrics of the traced run, `(name, unit)`, in output order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("stats.build_s", "s"),
    ("stats.sample_s", "s"),
    ("stats.coarsen_s", "s"),
    ("stats.regionalize_s", "s"),
    ("stats.unattributed_s", "s"),
    ("stats.regions", "count"),
    ("stats.est_weight_ratio", "ratio"),
    ("tiling.bsp_setup_s", "s"),
    ("tiling.bsp_states", "count"),
    ("placement.assign_s", "s"),
    ("admission.admit_s", "s"),
    ("engine.join_s", "s"),
    ("engine.route_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.sweep_s", "s"),
    ("engine.backpressure_s", "s"),
    ("engine.reducer_busy_s", "s"),
    ("engine.reducer_idle_s", "s"),
    ("engine.morsels", "count"),
    ("engine.vs_batch", "ratio"),
    ("batch.shuffle_s", "s"),
    ("batch.join_s", "s"),
    ("spill.query_s", "s"),
    ("spill.bytes", "bytes"),
    ("spill.write_s", "s"),
    ("spill.reload_s", "s"),
    ("spill.peak_over_budget", "ratio"),
    ("wire.query_s", "s"),
    ("wire.overhead_s", "s"),
    ("wire.bytes", "bytes"),
    ("wire.bytes_per_tuple", "bytes/tuple"),
    ("runtime.polls", "count"),
    ("runtime.pending_polls", "count"),
    ("runtime.useful_poll_ratio", "ratio"),
    ("runtime.wakeups", "count"),
    ("runtime.parked_s", "s"),
    ("runtime.busy_s", "s"),
    ("runtime.admission_wait_s", "s"),
    ("query.release_s", "s"),
    ("query.tail_s", "s"),
    ("query.unattributed_s", "s"),
    ("trace.query_s", "s"),
    ("trace.untraced_query_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["bicd-stats", "retail-join"];

/// The spill layer's reference query, which the traced run issues beside
/// every workload. It can also be run by hand as a workload of its own;
/// it is not one of [`WORKLOADS`] because its CPU time follows the host's
/// kernel and disk speed too closely to be bounded (see WORKLOADS.md).
pub const SPILL_REFERENCE: &str = "retail-spill";

/// Which generator builds the relations, at which `ewh_bench` scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Data {
    /// `ewh_bench::bicd`: 2 × 240,000 × scale tuples.
    Bicd(f64),
    /// `ewh_bench::retail_hotkey`: 2 × 20,000 × scale tuples.
    Retail(f64),
}

/// The property a workload was chosen for, checked before timing.
#[derive(Clone, Debug, PartialEq)]
pub struct Guard {
    /// Regions the histogram must build.
    pub regions: Option<RangeInclusive<usize>>,
    /// `MonotonicBspSolver::state_count` on the coarse grid.
    pub bsp_states: Option<RangeInclusive<usize>>,
    /// The query must spill, with its peak within budget + transient;
    /// otherwise it must write no spill bytes.
    pub spills: bool,
}

/// One named workload: its data and its pinned operator configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub data: Data,
    pub work: OutputWork,
    pub morsel_tuples: usize,
    pub queue_tuples: usize,
    /// The spill trigger; `None` means the query never spills.
    pub spill_budget_tuples: Option<u64>,
    pub guard: Guard,
}

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        let retail = |scale| Spec {
            name: "retail-join",
            data: Data::Retail(scale),
            work: OutputWork::Count,
            morsel_tuples: 1024,
            queue_tuples: 4096,
            spill_budget_tuples: None,
            guard: Guard {
                regions: None,
                bsp_states: None,
                spills: false,
            },
        };
        Some(match name {
            "bicd-stats" => Spec {
                name: "bicd-stats",
                data: Data::Bicd(0.25),
                work: OutputWork::Touch,
                // Most seeds give J regions over 127 candidate coarse cells
                // (8,128 rectangles); a few give J - 1 regions, or one
                // candidate cell more or fewer (8,001 or 8,255).
                guard: Guard {
                    regions: Some(J - 1..=J),
                    bsp_states: Some(8_001..=8_256),
                    spills: false,
                },
                ..retail(16.0)
            },
            "retail-join" => retail(16.0),
            "retail-spill" => Spec {
                name: "retail-spill",
                morsel_tuples: 256,
                queue_tuples: 256,
                spill_budget_tuples: Some(30_000),
                guard: Guard {
                    regions: None,
                    bsp_states: None,
                    spills: true,
                },
                ..retail(4.0)
            },
            _ => return None,
        })
    }

    /// The same workload with its data (and spill budget) shrunk by
    /// `factor`, for a quick self-check.
    pub fn scaled(&self, factor: f64) -> Spec {
        let data = match self.data {
            Data::Bicd(s) => Data::Bicd(s * factor),
            Data::Retail(s) => Data::Retail(s * factor),
        };
        Spec {
            data,
            spill_budget_tuples: self.spill_budget_tuples.map(|b| (b as f64 * factor) as u64),
            ..self.clone()
        }
    }

    /// The operator configuration, with memory capacity and spill budget
    /// pinned: `mem_capacity_bytes: None` makes admission request no slice
    /// (so no budget is derived from it), and the only spill trigger is
    /// [`Spec::spill_budget_tuples`].
    pub fn operator_config(&self, w: &Workload, seed: u64, spill_dir: &Path) -> OperatorConfig {
        OperatorConfig {
            j: J,
            threads: TASKS,
            seed,
            cost: w.cost,
            hist: HistogramParams::default(),
            mem_capacity_bytes: None,
            output_work: self.work,
            mode: ExecMode::Pipelined,
            morsel_tuples: self.morsel_tuples,
            queue_tuples: self.queue_tuples,
            spill: SpillConfig {
                budget_tuples: self.spill_budget_tuples,
                temp_dir: Some(spill_dir.to_path_buf()),
                fail_after_bytes: None,
            },
            ..Default::default()
        }
    }
}

/// A generated workload with its configuration and exact output count.
pub struct Prepared {
    pub spec: Spec,
    pub w: Workload,
    pub cfg: OperatorConfig,
    pub expected_count: u64,
    /// Set by [`Prepared::check_batch_oracle`] for workloads that fold a
    /// checksum; Count-mode runs fold none, so theirs is not compared.
    pub expected_checksum: Option<u64>,
}

fn keys(tuples: &[Tuple]) -> Vec<Key> {
    tuples.iter().map(|t| t.key).collect()
}

impl Prepared {
    pub fn new(spec: &Spec, seed: u64, spill_dir: &Path) -> Prepared {
        let w = match spec.data {
            Data::Bicd(scale) => bicd(scale, seed),
            Data::Retail(scale) => retail_hotkey(scale, seed),
        };
        let expected_count = JoinMatrix::new(keys(&w.r1), keys(&w.r2), w.cond).output_count();
        let cfg = spec.operator_config(&w, seed, spill_dir);
        Prepared {
            spec: spec.clone(),
            w,
            cfg,
            expected_count,
            expected_checksum: None,
        }
    }

    pub fn n_input(&self) -> u64 {
        self.w.n_input()
    }

    /// Runs the query once under `ExecMode::Batch` and, for workloads that
    /// fold a checksum, records it as the checksum every query must match.
    pub fn check_batch_oracle(&mut self, rt: &EngineRuntime) -> Result<(), String> {
        let cfg = OperatorConfig {
            mode: ExecMode::Batch,
            ..self.cfg.clone()
        };
        let batch = self.run_with(rt, &cfg);
        if batch.join.output_total != self.expected_count {
            return Err(format!(
                "batch oracle counted {} pairs, JoinMatrix says {}",
                batch.join.output_total, self.expected_count
            ));
        }
        if self.spec.work != OutputWork::Count {
            self.expected_checksum = Some(batch.join.checksum);
        }
        Ok(())
    }

    /// Checks one query's output against the oracle.
    pub fn check(&self, join: &JoinStats) -> Result<(), String> {
        if join.output_total != self.expected_count {
            return Err(format!(
                "count {} != expected {}",
                join.output_total, self.expected_count
            ));
        }
        match self.expected_checksum {
            Some(sum) if sum != join.checksum => {
                Err(format!("checksum {:#x} != batch {:#x}", join.checksum, sum))
            }
            _ => Ok(()),
        }
    }

    /// Runs the query once through `run_operator`.
    pub fn run(&self, rt: &EngineRuntime) -> OperatorRun {
        self.run_with(rt, &self.cfg)
    }

    /// The same query with mapper → reducer deliveries as loopback
    /// transport frames: the reference run of the transport layer.
    fn run_wire(&self, rt: &EngineRuntime) -> OperatorRun {
        let cfg = OperatorConfig {
            transport: Some(TransportConfig::loopback()),
            ..self.cfg.clone()
        };
        self.run_with(rt, &cfg)
    }

    fn run_with(&self, rt: &EngineRuntime, cfg: &OperatorConfig) -> OperatorRun {
        let w = &self.w;
        run_operator(rt, SchemeKind::Csio, &w.r1, &w.r2, &w.cond, cfg)
    }
}

/// The runtime the measured loop uses, with the set-up CPU times of every
/// repetition and the last warm-up query's result.
pub struct Setup {
    pub rt: EngineRuntime,
    pub setup_s: Vec<f64>,
    pub warm: OperatorRun,
}

/// Builds the runtime and runs the untimed warm-up query, `min_reps` times
/// or more (see [`SETUP_SECONDS`]); each repetition starts from a fresh
/// runtime.
pub fn setup(p: &Prepared, min_reps: usize) -> Setup {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut last = None;
    while setup_s.len() < min_reps.max(1) || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        let cpu = process_cpu_s();
        let rt = EngineRuntime::new(WORKERS);
        let warm = p.run(&rt);
        setup_s.push(process_cpu_s() - cpu);
        last = Some((rt, warm));
    }
    let (rt, warm) = last.expect("at least one set-up");
    Setup { rt, setup_s, warm }
}

/// The statistics stages of `build_scheme` issued one by one on the same
/// keys and parameters, plus the MONOTONICBSP set-up on the coarse grid.
struct Stages {
    sample_s: f64,
    coarsen_s: f64,
    regionalize_s: f64,
    bsp_setup_s: f64,
    bsp_states: usize,
}

fn stages(p: &Prepared, trace: &mut Trace, parent: Option<SpanId>, qid: u64) -> Stages {
    let cfg = &p.cfg;
    let params = HistogramParams {
        j: cfg.j_regions.unwrap_or(cfg.j),
        seed: cfg.seed,
        threads: cfg.threads,
        ..cfg.hist
    };
    let (k1, k2) = (keys(&p.w.r1), keys(&p.w.r2));
    let (s, ms) = trace.time("stats.sample", parent, qid, || {
        build_sample_matrix(&k1, &k2, &p.w.cond, &params)
    });
    let sample_s = trace.duration(s);
    let (s, mc) = trace.time("stats.coarsen", parent, qid, || {
        coarsen_sample_matrix(
            &ms,
            &p.w.cond,
            &cfg.cost,
            params.nc(),
            params.coarsen_iters,
            params.monotonic,
        )
    });
    let coarsen_s = trace.duration(s);
    let (s, _) = trace.time("stats.regionalize", parent, qid, || {
        regionalize(&mc, params.j, params.baseline_bsp)
    });
    let regionalize_s = trace.duration(s);
    let (s, bsp_states) = trace.time("tiling.bsp_setup", parent, qid, || {
        MonotonicBspSolver::new(&mc.grid).state_count()
    });
    Stages {
        sample_s,
        coarsen_s,
        regionalize_s,
        bsp_setup_s: trace.duration(s),
        bsp_states,
    }
}

/// Checks that the workload shows the property it was chosen for, on the
/// result of its warm-up query `warm`, and that the same query over the
/// loopback transport (the traced run's wire reference) answers correctly
/// and uses the wire.
pub fn check_guards(p: &Prepared, rt: &EngineRuntime, warm: &OperatorRun) -> Result<(), String> {
    let (spec, join) = (&p.spec, &warm.join);
    p.check(join).map_err(|e| format!("warm-up query: {e}"))?;
    if let Some(regions) = &spec.guard.regions {
        if !regions.contains(&warm.num_regions) {
            return Err(format!("{} regions, want {regions:?}", warm.num_regions));
        }
    }
    if let Some(states) = &spec.guard.bsp_states {
        let got = stages(p, &mut Trace::default(), None, 0).bsp_states;
        if !states.contains(&got) {
            return Err(format!("{got} MONOTONICBSP states, want {states:?}"));
        }
    }
    if spec.guard.spills {
        if join.spill_bytes == 0 {
            return Err("the query must spill but wrote no spill bytes".into());
        }
        // The budget is the spill trigger; the bounded in-flight buffers
        // (queues, routed morsels, probe chunks) come on top of it.
        let budget = spec.spill_budget_tuples.unwrap_or(0);
        let bound = (budget + p.cfg.min_pipelined_input_tuples()) * TUPLE_BYTES;
        if join.peak_resident_bytes > bound {
            return Err(format!(
                "peak {} B exceeds budget + transient {bound} B",
                join.peak_resident_bytes
            ));
        }
    } else if join.spill_bytes != 0 {
        return Err(format!(
            "an in-memory workload spilled {} bytes",
            join.spill_bytes
        ));
    }
    if join.wire_bytes != 0 {
        return Err(format!(
            "{} wire bytes without a transport",
            join.wire_bytes
        ));
    }
    let wire = p.run_wire(rt).join;
    p.check(&wire)
        .map_err(|e| format!("query over the wire: {e}"))?;
    if wire.wire_bytes == 0 {
        return Err("the query over the wire sent no wire bytes".into());
    }
    Ok(())
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// `(value, percentile)`. With too few samples there is none, and the
/// maximum is returned as the 100th percentile.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (v.last().copied().unwrap_or(f64::NAN), 100.0);
    }
    let k = n - TAIL_BEYOND;
    (v[k - 1], 100.0 * k as f64 / n as f64)
}

/// Queries attempted and failed (panicked or wrong output).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of the whole process (every thread, user + system), in
/// seconds: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and process CPU seconds of one query.
#[derive(Clone, Copy, Debug)]
pub struct QueryTime {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs one query through `run_operator`, catching a panic.
fn timed_query(
    p: &Prepared,
    rt: &EngineRuntime,
    tally: &mut Tally,
) -> (QueryTime, Option<JoinStats>) {
    let (start, cpu) = (Instant::now(), process_cpu_s());
    let res = catch_unwind(AssertUnwindSafe(|| p.run(rt)));
    let time = QueryTime {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu,
    };
    tally.attempted += 1;
    let checked = match res {
        Ok(run) => p.check(&run.join).map(|()| run.join),
        Err(_) => Err("query panicked".into()),
    };
    match checked {
        Ok(join) => (time, Some(join)),
        Err(e) => {
            eprintln!("query {} failed: {e}", tally.attempted);
            tally.failed += 1;
            (time, None)
        }
    }
}

/// The end-to-end metrics of the timed loop.
pub struct Timed {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    pub samples: usize,
    /// The queries' wall-clock median, in seconds.
    pub wall_p50: f64,
    /// The queries' wall-clock [`tail`]: `(seconds, percentile)`.
    pub wall_tail: (f64, f64),
}

/// Closed loop, tracing off: queries back to back until `seconds` pass
/// (at least one query).
pub fn run_timed(p: &Prepared, setup: &Setup, seconds: Duration) -> Timed {
    let mut tally = Tally::default();
    let (mut walls, mut cpus) = (vec![], vec![]);
    let (mut peaks, mut weights, mut network) = (vec![], vec![], vec![]);
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < seconds {
        let (time, join) = timed_query(p, &setup.rt, &mut tally);
        walls.push(time.wall_s);
        cpus.push(time.cpu_s);
        if let Some(j) = join {
            peaks.push(j.peak_resident_bytes as f64 / (1u64 << 20) as f64);
            weights.push(j.max_weight_milli as f64);
            network.push(j.network_tuples as f64);
        }
    }
    let cpu_p50 = median(&cpus);
    let metrics = BTreeMap::from([
        ("query_cpu_s.p50", cpu_p50),
        // One query in flight: the median query rate per CPU-second.
        ("throughput_tuples_per_cpu_s", p.n_input() as f64 / cpu_p50),
        ("peak_resident_mib", median(&peaks)),
        ("max_weight", median(&weights)),
        ("network_tuples", median(&network)),
        ("setup_s", median(&setup.setup_s)),
        (
            "correct_share",
            (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
        ),
    ]);
    Timed {
        tally,
        metrics,
        samples: walls.len(),
        wall_p50: median(&walls),
        wall_tail: tail(&walls),
    }
}

/// Per-layer values of one traced query.
type Layers = BTreeMap<&'static str, f64>;

/// The query of [`Prepared::run`] issued as the public calls
/// `run_operator` makes, each in its own span, followed by four separate
/// reference spans: the statistics stages, the batch shuffle + join, the
/// whole query over the loopback transport, and the spill reference query
/// `sp` (see [`SPILL_REFERENCE`]).
fn traced_query(
    p: &Prepared,
    sp: &Prepared,
    rt: &EngineRuntime,
    trace: &mut Trace,
    qid: u64,
) -> Layers {
    let (w, cfg) = (&p.w, &p.cfg);
    let before = rt.metrics();
    let q = trace.open("query", None, qid);
    let (build, (scheme, _)) = trace.time("stats.build", Some(q), qid, || {
        build_scheme(SchemeKind::Csio, &w.r1, &w.r2, &w.cond, cfg)
    });
    let (assign, map) = trace.time("placement.assign", Some(q), qid, || {
        assign_regions(&scheme, cfg.j, cfg.capacities.as_deref(), &cfg.cost)
    });
    // Admission as `run_operator` does it: the ticket's budget slice unless
    // the operator pins one, and the ticket-scoped spill directory.
    let (admit, (ticket, budget, spill, plan)) =
        trace.time("admission.admit", Some(q), qid, || {
            let ticket = rt.admit(cfg.mem_capacity_bytes.map(|b| (b / TUPLE_BYTES).max(1)));
            let budget = cfg.spill.budget_tuples.or(ticket.budget_tuples());
            let spill = budget.map(|_| {
                let dir = ticket.spill_dir(cfg.spill.temp_dir.as_deref());
                SpillContext::new(dir.to_path_buf(), cfg.spill.fail_after_bytes)
            });
            let plan = MorselPlan::new(w.r1.len(), w.r2.len(), cfg.morsel_tuples);
            (ticket, budget, spill, plan)
        });
    let (join_span, mut join) = trace.time("engine.join", Some(q), qid, || {
        execute_join_pipelined(
            rt,
            &w.r1,
            &w.r2,
            &scheme,
            &w.cond,
            &map,
            &plan,
            cfg,
            Some(ticket.gauge()),
            budget,
            spill.as_ref(),
        )
    });
    join.admission_wait_secs = ticket.admission_wait_secs();
    let (release, ()) = trace.time("query.release", Some(q), qid, || {
        drop(spill);
        drop(ticket);
    });
    trace.close(q);
    let after = rt.metrics();

    let probe = trace.open("stats.probe", None, qid);
    let st = stages(p, trace, Some(probe), qid);
    trace.close(probe);
    let oracle = trace.open("batch.oracle", None, qid);
    let (shuffle_span, shuffled) = trace.time("batch.shuffle", Some(oracle), qid, || {
        shuffle(&w.r1, &w.r2, &scheme, cfg.threads, cfg.seed ^ 0x5F)
    });
    let (batch_span, batch) = trace.time("batch.join", Some(oracle), qid, || {
        execute_join(shuffled, &w.cond, &map, cfg)
    });
    trace.close(oracle);
    let (wire_span, wire) = trace.time("wire.query", None, qid, || p.run_wire(rt).join);
    let (spill_span, spilled) = trace.time("spill.query", None, qid, || sp.run(rt).join);

    if let Err(e) = p.check(&join) {
        panic!("traced query: {e}");
    }
    if batch.output_total != p.expected_count {
        panic!("traced batch join: count {}", batch.output_total);
    }
    if let Err(e) = p.check(&wire) {
        panic!("query over the wire: {e}");
    }
    if let Err(e) = sp.check(&spilled) {
        panic!("spill reference query: {e}");
    }

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (build_s, join_s) = (trace.duration(build), trace.duration(join_span));
    let batch_s = trace.duration(shuffle_span) + trace.duration(batch_span);
    let polls = after.polls - before.polls;
    let pending = after.spurious_polls - before.spurious_polls;
    BTreeMap::from([
        ("stats.build_s", build_s),
        ("stats.sample_s", st.sample_s),
        ("stats.coarsen_s", st.coarsen_s),
        ("stats.regionalize_s", st.regionalize_s),
        (
            "stats.unattributed_s",
            build_s - (st.sample_s + st.coarsen_s + st.regionalize_s),
        ),
        ("stats.regions", scheme.num_regions() as f64),
        (
            "stats.est_weight_ratio",
            ratio(
                scheme.build.est_max_weight as f64,
                join.max_weight_milli as f64,
            ),
        ),
        ("tiling.bsp_setup_s", st.bsp_setup_s),
        ("tiling.bsp_states", st.bsp_states as f64),
        ("placement.assign_s", trace.duration(assign)),
        ("admission.admit_s", trace.duration(admit)),
        ("engine.join_s", join_s),
        ("engine.route_s", join.route_secs),
        ("engine.merge_s", join.merge_secs),
        ("engine.sweep_s", join.sweep_secs),
        ("engine.backpressure_s", join.backpressure_secs),
        ("engine.reducer_busy_s", join.reducer_busy_total()),
        ("engine.reducer_idle_s", join.reducer_idle_total()),
        ("engine.morsels", join.morsels_routed as f64),
        ("engine.vs_batch", ratio(join_s, batch_s)),
        ("batch.shuffle_s", trace.duration(shuffle_span)),
        ("batch.join_s", trace.duration(batch_span)),
        ("spill.query_s", trace.duration(spill_span)),
        ("spill.bytes", spilled.spill_bytes as f64),
        ("spill.write_s", spilled.spill_secs),
        ("spill.reload_s", spilled.reload_secs),
        (
            "spill.peak_over_budget",
            ratio(
                (spilled.peak_resident_bytes / TUPLE_BYTES) as f64,
                sp.spec.spill_budget_tuples.unwrap_or(0) as f64,
            ),
        ),
        ("wire.query_s", trace.duration(wire_span)),
        ("wire.bytes", wire.wire_bytes as f64),
        (
            "wire.bytes_per_tuple",
            ratio(wire.wire_bytes as f64, wire.network_tuples as f64),
        ),
        ("runtime.polls", polls as f64),
        ("runtime.pending_polls", pending as f64),
        (
            "runtime.useful_poll_ratio",
            ratio((polls - pending) as f64, polls as f64),
        ),
        ("runtime.wakeups", (after.wakeups - before.wakeups) as f64),
        ("runtime.parked_s", after.parked_secs - before.parked_secs),
        ("runtime.busy_s", after.busy_secs - before.busy_secs),
        ("runtime.admission_wait_s", join.admission_wait_secs),
        ("query.release_s", trace.duration(release)),
        ("query.unattributed_s", trace.self_time(q)),
        ("trace.query_s", trace.duration(q)),
    ])
}

/// The per-layer metrics of the traced loop, and every span it recorded.
pub struct Traced {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    pub trace: Trace,
    pub traced_queries: usize,
}

/// Closed loop alternating an untraced query (timed whole, as in
/// [`run_timed`]) with a traced one, until `seconds` pass. Each per-layer
/// metric is the median over the traced queries, with the spill layer's
/// taken from the spill reference query `sp`; `trace.overhead_s` is the
/// traced median minus the untraced median, `wire.overhead_s` the wire
/// reference's median minus the untraced median, and `query.tail_s` the
/// untraced queries' [`tail`].
pub fn run_traced(p: &Prepared, sp: &Prepared, setup: &Setup, seconds: Duration) -> Traced {
    let mut tally = Tally::default();
    let mut trace = Trace::default();
    let mut untraced = vec![];
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let mut qid = 0;
    while qid == 0 || start.elapsed() < seconds {
        untraced.push(timed_query(p, &setup.rt, &mut tally).0.wall_s);
        qid += 1;
        tally.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| {
            traced_query(p, sp, &setup.rt, &mut trace, qid)
        })) {
            Ok(values) => {
                for (name, v) in values {
                    layers.entry(name).or_default().push(v);
                }
            }
            Err(_) => {
                eprintln!("traced query {qid} failed");
                tally.failed += 1;
            }
        }
    }
    let mut metrics: BTreeMap<&'static str, f64> =
        layers.iter().map(|(&k, v)| (k, median(v))).collect();
    let untraced_p50 = median(&untraced);
    metrics.insert("trace.untraced_query_s", untraced_p50);
    let traced_p50 = metrics.get("trace.query_s").copied().unwrap_or(f64::NAN);
    metrics.insert("trace.overhead_s", traced_p50 - untraced_p50);
    let wire_p50 = metrics.get("wire.query_s").copied().unwrap_or(f64::NAN);
    metrics.insert("wire.overhead_s", wire_p50 - untraced_p50);
    metrics.insert("query.tail_s", tail(&untraced).0);
    Traced {
        tally,
        metrics,
        trace,
        traced_queries: qid as usize,
    }
}

/// Orders `values` by `names`, failing on a missing or non-finite value or
/// on a value no name asks for.
pub fn select(
    names: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    if let Some(extra) = values.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not declared"));
    }
    names
        .iter()
        .map(|&(name, unit)| match values.get(name) {
            Some(v) if v.is_finite() => Ok((name, *v, unit)),
            Some(v) => Err(format!("metric {name} is {v}")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(tally: Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Working files of one run (spill directories, span exports), relative to
/// the directory the benchmark runs from.
pub const WORK_DIR: &str = ".perfbench";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (30.0, 75.0));
        assert_eq!(tail(&v[..10]), (10.0, 100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn select_rejects_missing_and_undeclared_metrics() {
        let names = [("a", "s"), ("b", "count")];
        let mut values = BTreeMap::from([("a", 1.0)]);
        assert!(select(&names, &values).is_err());
        values.insert("b", 2.0);
        assert_eq!(select(&names, &values).unwrap().len(), 2);
        values.insert("c", 3.0);
        assert!(select(&names, &values).is_err());
    }
}
