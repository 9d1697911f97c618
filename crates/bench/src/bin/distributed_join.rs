//! Two-process distributed join over the framed transport.
//!
//! The parent process generates the BCB workload, runs the in-process
//! engine as the oracle, then re-runs the same join *distributed*: a
//! worker process (this same binary, `--role worker`) binds a localhost
//! TCP listener, the parent ships both relations over
//! [`RemoteExchangeSender`] links, and the worker executes the join with
//! its mapper → reducer deliveries *also* carried by the framed transport
//! (`--wire tcp`). Output counts and checksums must be bit-identical to
//! the in-process run on all four schemes, with forced migration on and
//! off — migrations included, region state crosses real sockets.
//!
//! Sections reported (and written to `BENCH_transport.json`):
//! * frame-codec encode/decode throughput,
//! * in-process vs. loopback-pipe vs. TCP makespans for the same join,
//! * the communication-aware migration gate: the same straggler backlog is
//!   migrated across a fast link and declined across a thin one,
//! * the 4 schemes × {frozen, forced-migration} two-process identity
//!   matrix.
//!
//! Flags (beyond the harness's `--scale/--j/--threads/--seed`):
//! `--json PATH` writes the report; `--claims` runs only the identity
//! matrix and exits non-zero on any mismatch (CI hook); `--throttle N`
//! paces every transport data writer to N bytes/sec; `--window N` sets the
//! relation-shipping credit window in tuples.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::Instant;

use ewh_bench::{bcb, json_escape, print_table, retail_hotkey, RunConfig, Workload};
use ewh_core::{encode_frame, ColumnBatch, FrameDecoder, JoinCondition, SchemeKind};
use ewh_exec::engine::{run_pipelined_io, EngineIo, Source};
use ewh_exec::{
    build_scheme, run_operator, AdaptiveConfig, EngineConfig, EngineRuntime, ExecMode, LinkProfile,
    MorselPlan, OperatorConfig, RemoteExchangeReceiver, RemoteExchangeSender, Straggler,
    TransportConfig,
};

const BCB_BETA: i64 = 2;

fn scheme_name(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Ci => "ci",
        SchemeKind::Csi => "csi",
        SchemeKind::Csio => "csio",
        SchemeKind::Hash => "hash",
    }
}

fn scheme_from_name(name: &str) -> SchemeKind {
    match name {
        "ci" => SchemeKind::Ci,
        "csi" => SchemeKind::Csi,
        "csio" => SchemeKind::Csio,
        "hash" => SchemeKind::Hash,
        other => panic!("unknown scheme `{other}`"),
    }
}

/// Extra flags the harness's `RunConfig::from_args` ignores.
struct Extra {
    role_worker: bool,
    scheme: SchemeKind,
    migrate: bool,
    wire: String,
    window: usize,
    throttle: Option<u64>,
    claims: bool,
    json: Option<String>,
}

fn parse_extra() -> Extra {
    let args: Vec<String> = std::env::args().collect();
    let mut e = Extra {
        role_worker: false,
        scheme: SchemeKind::Csio,
        migrate: false,
        wire: "tcp".into(),
        window: 8192,
        throttle: None,
        claims: false,
        json: None,
    };
    for i in 0..args.len() {
        let next = || args.get(i + 1).cloned().unwrap_or_default();
        match args[i].as_str() {
            "--role" => e.role_worker = next() == "worker",
            "--scheme" => e.scheme = scheme_from_name(&next()),
            "--migrate" => e.migrate = next() == "1",
            "--wire" => e.wire = next(),
            "--window" => e.window = next().parse().expect("--window takes an integer"),
            "--throttle" => e.throttle = Some(next().parse().expect("--throttle takes bytes/sec")),
            "--claims" => e.claims = true,
            "--json" => e.json = Some(next()),
            _ => {}
        }
    }
    e
}

/// The forced-migration knobs every over-the-wire migration test uses: a
/// zero move-cost gate and a one-tuple backlog threshold, plus a straggler
/// on reducer 0 so the backlog persists. The straggler matters doubly over
/// the transport: a remote queue's `used_tuples` only drains after the
/// credit round-trip, so an idle-target window is racy without one.
fn forced_migration() -> AdaptiveConfig {
    AdaptiveConfig {
        reassign: true,
        move_cost_factor: 0.0,
        migrate_backlog_tuples: 1,
        poll_micros: 20,
        ..Default::default()
    }
}

/// Engine tasks for a run that must be able to migrate: at least 4, so
/// there are at least 2 reducers (2 tasks give one reducer and nowhere to
/// move a region). Tasks are not threads — the pool stays `rc.threads`
/// workers wide.
fn migration_tasks(rc: &RunConfig) -> usize {
    rc.threads.max(4)
}

fn wire_config(wire: &str, throttle: Option<u64>) -> Option<TransportConfig> {
    let base = match wire {
        "none" => return None,
        "loopback" => TransportConfig::loopback(),
        "tcp" => TransportConfig::tcp(),
        other => panic!("unknown wire `{other}`"),
    };
    Some(TransportConfig {
        throttle_bytes_per_sec: throttle,
        ..base
    })
}

// ---------------------------------------------------------------------------
// Worker role: the remote half of the distributed join.
// ---------------------------------------------------------------------------

/// Receives R1 (fully materialized) then R2 (streamed into the engine's
/// probe side) over two accepted socket connections, joins them with
/// mapper → reducer deliveries on the configured wire, and prints one
/// `RESULT {json}` line.
fn run_worker(rc: &RunConfig, e: &Extra) {
    // Regenerate the workload deterministically (same binary, same seed):
    // the *scheme* is built from these keys — stand-in for the statistics
    // broadcast of a real cluster — while the tuple data the join actually
    // consumes arrives over the sockets below.
    let w = bcb(BCB_BETA, rc.scale, rc.seed);
    let cfg = OperatorConfig {
        output_work: ewh_exec::OutputWork::Touch,
        ..rc.operator_config(&w)
    };
    let (scheme, _) = build_scheme(e.scheme, &w.r1, &w.r2, &w.cond, &cfg);
    let n_regions = scheme.num_regions();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local_addr");
    println!("LISTEN {addr}");
    std::io::stdout().flush().expect("flush");

    // R1 first: the build side must be a scan, so drain it to a resident
    // ColumnBatch before the engine starts. The bounded staging exchange +
    // credit window backpressure the parent while we drain.
    let rx1 = RemoteExchangeReceiver::accept(&listener, e.window).expect("accept r1");
    let mut r1 = ColumnBatch::new();
    while let Some(mut batch) = rx1.exchange().pop() {
        r1.append(&mut batch);
    }
    rx1.join().expect("r1 stream failed");

    // R2 streams straight into the probe side while the engine runs. The
    // socket receiver stages into its own exchange without touching any
    // memory gauge, so a forwarding hop re-pushes each batch under the
    // engine's gauge contract (producers credit what they push — see
    // `run_pipelined_io`'s leak check).
    let rx2 = RemoteExchangeReceiver::accept(&listener, e.window).expect("accept r2");
    let staged = rx2.exchange().clone();
    let exchange = ewh_exec::Exchange::new(e.window);
    let gauge = ewh_exec::MemGauge::default();

    let tasks = if e.migrate {
        migration_tasks(rc)
    } else {
        rc.threads
    };
    let mut engine_cfg = EngineConfig::for_tasks(tasks, cfg.morsel_tuples, rc.seed ^ 0x5F);
    engine_cfg.queue_tuples = cfg.queue_tuples;
    engine_cfg.work = ewh_exec::OutputWork::Touch;
    engine_cfg.reducers = engine_cfg.reducers.min(n_regions.max(1));
    engine_cfg.transport = wire_config(&e.wire, e.throttle);
    if e.migrate {
        engine_cfg.adaptive = forced_migration();
        engine_cfg.straggler = Some(Straggler {
            reducer: 0,
            nanos_per_tuple: 20_000,
        });
    } else {
        engine_cfg.adaptive = AdaptiveConfig {
            reassign: false,
            ..Default::default()
        };
    }

    let region_to_reducer: Vec<u32> = (0..n_regions)
        .map(|r| (r % engine_cfg.reducers) as u32)
        .collect();
    let table = ewh_core::RoutingTable::new(&region_to_reducer);
    let plan = MorselPlan::new(r1.len(), 0, cfg.morsel_tuples);

    let rt = EngineRuntime::new(rc.threads);
    let start = Instant::now();
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            while let Some(batch) = staged.pop() {
                gauge.add(batch.len() as u64);
                exchange.push(batch);
            }
            exchange.close();
        });
        run_pipelined_io(
            &rt,
            EngineIo {
                r1: Source::Scan(&r1),
                r2: Source::Exchange(&exchange),
                router: &scheme.router,
                cond: &w.cond,
                table: &table,
                plan: &plan,
                sink: None,
                key_from: ewh_exec::KeyFrom::Probe,
                gauge: Some(&gauge),
                cancel: None,
                budget_tuples: None,
                spill: None,
                links: None,
            },
            &engine_cfg,
        )
    });
    let wall = start.elapsed().as_secs_f64();
    rx2.join().expect("r2 stream failed");
    assert!(!out.cancelled, "worker join cancelled by transport failure");

    println!(
        "RESULT {{\"output_total\": {}, \"checksum\": {}, \"wire_bytes\": {}, \
         \"regions_migrated\": {}, \"wall_secs\": {:.6}}}",
        out.output_total(),
        out.checksum(),
        out.wire_bytes,
        out.regions_migrated,
        wall
    );
    std::io::stdout().flush().expect("flush");
}

// ---------------------------------------------------------------------------
// Parent role: spawn the worker, ship the relations, compare.
// ---------------------------------------------------------------------------

struct WorkerResult {
    output_total: u64,
    checksum: u64,
    wire_bytes: u64,
    regions_migrated: u64,
    wall_secs: f64,
    shipped_bytes: u64,
}

/// Pulls `"key": value` out of the worker's one-line RESULT report (no
/// JSON dependency in this workspace; the report format is ours).
fn json_u64(line: &str, key: &str) -> u64 {
    json_raw(line, key).parse().expect("integer field")
}

fn json_f64(line: &str, key: &str) -> f64 {
    json_raw(line, key).parse().expect("float field")
}

fn json_raw<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat).expect("field present") + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).expect("field terminated");
    rest[..end].trim()
}

/// Ships one relation over a fresh socket connection in morsel-sized
/// batches. Returns the framed byte volume put on the wire.
fn ship(addr: &str, tuples: &[ewh_core::Tuple], window: usize, chunk: usize) -> u64 {
    let sender = RemoteExchangeSender::connect(addr, window).expect("connect");
    let mut bytes = 0u64;
    for part in tuples.chunks(chunk.max(1)) {
        let batch = ColumnBatch::from_tuples(part);
        // Frame body: 29-byte fixed header + 16 bytes per tuple.
        bytes += 4 + 29 + 16 * batch.len() as u64;
        sender.push(&batch).expect("push");
    }
    sender.finish().expect("finish");
    bytes
}

/// One distributed run: spawn the worker, ship R1 then R2, read its
/// RESULT line, and reap it.
fn run_distributed(
    rc: &RunConfig,
    e: &Extra,
    w: &Workload,
    kind: SchemeKind,
    migrate: bool,
) -> WorkerResult {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--role",
        "worker",
        "--scheme",
        scheme_name(kind),
        "--migrate",
        if migrate { "1" } else { "0" },
        "--wire",
        &e.wire,
        "--window",
        &e.window.to_string(),
        "--scale",
        &rc.scale.to_string(),
        "--seed",
        &rc.seed.to_string(),
        "--j",
        &rc.j.to_string(),
        "--threads",
        &rc.threads.to_string(),
    ]);
    if let Some(t) = e.throttle {
        cmd.args(["--throttle", &t.to_string()]);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn worker");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout")).lines();
    let listen = lines
        .next()
        .expect("worker printed LISTEN")
        .expect("read LISTEN");
    let addr = listen
        .strip_prefix("LISTEN ")
        .expect("LISTEN line")
        .to_string();

    let mut shipped = ship(&addr, &w.r1, e.window, 4096);
    shipped += ship(&addr, &w.r2, e.window, 4096);

    let result = lines
        .next()
        .expect("worker printed RESULT")
        .expect("read RESULT");
    let body = result.strip_prefix("RESULT ").expect("RESULT line");
    let status = child.wait().expect("wait worker");
    assert!(status.success(), "worker exited with {status}");
    WorkerResult {
        output_total: json_u64(body, "output_total"),
        checksum: json_u64(body, "checksum"),
        wire_bytes: json_u64(body, "wire_bytes"),
        regions_migrated: json_u64(body, "regions_migrated"),
        wall_secs: json_f64(body, "wall_secs"),
        shipped_bytes: shipped,
    }
}

// ---------------------------------------------------------------------------
// Local sections: codec throughput, wire makespans, the link gate.
// ---------------------------------------------------------------------------

struct CodecReport {
    tuples_per_frame: usize,
    encode_gbps: f64,
    decode_gbps: f64,
}

fn codec_throughput() -> CodecReport {
    let tuples = 1 << 16;
    let mut batch = ColumnBatch::with_capacity(tuples);
    for i in 0..tuples as i64 {
        batch.push(i.wrapping_mul(0x9E37), (i as u64) << 7 | 1);
    }
    let iters = 200;
    let mut buf = Vec::new();
    let start = Instant::now();
    for _ in 0..iters {
        buf.clear();
        encode_frame(&mut buf, 1, 0, 0, &[], &batch);
        std::hint::black_box(buf.last());
    }
    let encode_secs = start.elapsed().as_secs_f64();
    let bytes = (buf.len() * iters) as f64;

    let mut dec = FrameDecoder::new();
    let start = Instant::now();
    for _ in 0..iters {
        dec.feed(&buf);
        let frame = dec.next_frame().expect("decode").expect("one frame");
        std::hint::black_box(frame.batch.len());
    }
    let decode_secs = start.elapsed().as_secs_f64();
    CodecReport {
        tuples_per_frame: tuples,
        encode_gbps: bytes / encode_secs / 1e9,
        decode_gbps: bytes / decode_secs / 1e9,
    }
}

struct WireRun {
    wire: &'static str,
    wall_secs: f64,
    wire_bytes: u64,
    backpressure_secs: f64,
}

/// The same pipelined join over in-process queues, loopback pipes, and
/// real TCP sockets — one process, so the deltas isolate the transport.
fn local_makespans(rc: &RunConfig, w: &Workload, throttle: Option<u64>) -> Vec<WireRun> {
    let rt = rc.runtime();
    let mut runs = Vec::new();
    for (wire, transport) in [
        ("none", None),
        ("loopback", wire_config("loopback", None)),
        ("tcp", wire_config("tcp", None)),
        (
            "tcp+throttle",
            throttle.and_then(|t| wire_config("tcp", Some(t))),
        ),
    ] {
        if wire == "tcp+throttle" && transport.is_none() {
            continue;
        }
        let cfg = OperatorConfig {
            mode: ExecMode::Pipelined,
            transport,
            ..rc.operator_config(w)
        };
        let run = run_operator(&rt, SchemeKind::Csio, &w.r1, &w.r2, &w.cond, &cfg);
        runs.push(WireRun {
            wire,
            wall_secs: run.join.wall_join_secs,
            wire_bytes: run.join.wire_bytes,
            backpressure_secs: run.join.backpressure_secs,
        });
    }
    runs
}

struct GateRun {
    label: &'static str,
    bandwidth: f64,
    regions_migrated: u64,
    wall_secs: f64,
}

/// The communication-aware gate, demonstrated: the same straggler backlog
/// on the same workload is relieved by migration when every reducer sits
/// behind a fast link, and declined when the links are thin enough that
/// shipping the sealed state costs more than draining the backlog.
fn link_gate(rc: &RunConfig) -> Vec<GateRun> {
    let w = retail_hotkey(rc.scale.max(1.0), rc.seed);
    let straggler = Some(Straggler {
        reducer: 0,
        nanos_per_tuple: 20_000,
    });
    let rt = rc.runtime();
    let tasks = migration_tasks(rc);
    let mut runs = Vec::new();
    for (label, bandwidth, rtt) in [("fast", 1e9, 1e-4), ("thin", 1e3, 5e-2)] {
        let cfg = OperatorConfig {
            mode: ExecMode::Pipelined,
            output_work: ewh_exec::OutputWork::Count,
            adaptive: AdaptiveConfig {
                reassign: true,
                // Honest drain rate for a 20 µs/tuple straggler, so the
                // backlog-relief side of the gate is priced realistically.
                drain_tuples_per_sec: 50_000.0,
                ..Default::default()
            },
            straggler,
            links: Some(vec![
                LinkProfile {
                    bandwidth_bytes_per_sec: bandwidth,
                    rtt_secs: rtt,
                };
                tasks
            ]),
            threads: tasks,
            ..rc.operator_config(&w)
        };
        let run = run_operator(&rt, SchemeKind::Csio, &w.r1, &w.r2, &w.cond, &cfg);
        runs.push(GateRun {
            label,
            bandwidth,
            regions_migrated: run.join.regions_migrated,
            wall_secs: run.join.wall_join_secs,
        });
    }
    runs
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct MatrixRow {
    scheme: SchemeKind,
    migrate: bool,
    ok: bool,
    worker: WorkerResult,
}

fn main() {
    let rc = RunConfig::from_args();
    let e = parse_extra();
    if e.role_worker {
        run_worker(&rc, &e);
        return;
    }

    let w = bcb(BCB_BETA, rc.scale, rc.seed);
    let cond = JoinCondition::Band { beta: BCB_BETA };
    assert_eq!(w.cond, cond);

    // The oracle: output size and checksum are properties of the join, not
    // of any scheme or wire, so one in-process batch run anchors every
    // comparison below.
    let rt = rc.runtime();
    let oracle = run_operator(
        &rt,
        SchemeKind::Ci,
        &w.r1,
        &w.r2,
        &w.cond,
        &OperatorConfig {
            mode: ExecMode::Batch,
            ..rc.operator_config(&w)
        },
    );
    drop(rt);
    eprintln!(
        "oracle: {} tuples, checksum {:#x}",
        oracle.join.output_total, oracle.join.checksum
    );

    // The 4 schemes × {frozen, migrating} two-process matrix.
    let mut matrix = Vec::new();
    let mut all_ok = true;
    for kind in [
        SchemeKind::Ci,
        SchemeKind::Csi,
        SchemeKind::Csio,
        SchemeKind::Hash,
    ] {
        for migrate in [false, true] {
            let worker = run_distributed(&rc, &e, &w, kind, migrate);
            let ok = worker.output_total == oracle.join.output_total
                && worker.checksum == oracle.join.checksum
                && (!migrate || worker.regions_migrated > 0);
            all_ok &= ok;
            matrix.push(MatrixRow {
                scheme: kind,
                migrate,
                ok,
                worker,
            });
        }
    }

    let rows: Vec<Vec<String>> = matrix
        .iter()
        .map(|r| {
            vec![
                scheme_name(r.scheme).to_string(),
                if r.migrate { "forced" } else { "frozen" }.to_string(),
                r.worker.output_total.to_string(),
                format!("{:#x}", r.worker.checksum),
                r.worker.regions_migrated.to_string(),
                format!("{:.3}", r.worker.wall_secs),
                r.worker.wire_bytes.to_string(),
                r.worker.shipped_bytes.to_string(),
                if r.ok { "ok" } else { "MISMATCH" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "two-process distributed join vs. in-process oracle",
        &[
            "scheme",
            "migration",
            "output",
            "checksum",
            "migrated",
            "wall_s",
            "engine_wire_B",
            "shipped_B",
            "status",
        ],
        &rows,
    );

    if e.claims {
        if all_ok {
            println!("CLAIMS OK");
            return;
        }
        eprintln!("CLAIMS FAILED: distributed runs diverged from the oracle");
        std::process::exit(1);
    }
    assert!(all_ok, "distributed runs diverged from the oracle");

    let codec = codec_throughput();
    print_table(
        "frame codec throughput",
        &["tuples/frame", "encode_GB_s", "decode_GB_s"],
        &[vec![
            codec.tuples_per_frame.to_string(),
            format!("{:.2}", codec.encode_gbps),
            format!("{:.2}", codec.decode_gbps),
        ]],
    );

    let makespans = local_makespans(&rc, &w, e.throttle);
    print_table(
        "one-process makespans by wire (CSIO)",
        &["wire", "join_wall_s", "wire_bytes", "backpressure_s"],
        &makespans
            .iter()
            .map(|r| {
                vec![
                    r.wire.to_string(),
                    format!("{:.3}", r.wall_secs),
                    r.wire_bytes.to_string(),
                    format!("{:.3}", r.backpressure_secs),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let gate = link_gate(&rc);
    print_table(
        "communication-aware migration gate (RETAIL + straggler)",
        &["links", "bandwidth_B_s", "regions_migrated", "join_wall_s"],
        &gate
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    format!("{:.0}", r.bandwidth),
                    r.regions_migrated.to_string(),
                    format!("{:.3}", r.wall_secs),
                ]
            })
            .collect::<Vec<_>>(),
    );

    if let Some(path) = &e.json {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"distributed_join\",\n");
        out.push_str(&format!(
            "  \"workload\": \"{}\", \"scale\": {}, \"j\": {}, \"threads\": {}, \"seed\": {},\n",
            json_escape(&w.name),
            rc.scale,
            rc.j,
            rc.threads,
            rc.seed
        ));
        out.push_str(&format!(
            "  \"oracle\": {{\"output_total\": {}, \"checksum\": {}}},\n",
            oracle.join.output_total, oracle.join.checksum
        ));
        out.push_str(&format!(
            "  \"frame_codec\": {{\"tuples_per_frame\": {}, \"encode_gbps\": {:.3}, \"decode_gbps\": {:.3}}},\n",
            codec.tuples_per_frame, codec.encode_gbps, codec.decode_gbps
        ));
        out.push_str("  \"local_makespans\": [\n");
        for (i, r) in makespans.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"wire\": \"{}\", \"join_wall_secs\": {:.4}, \"wire_bytes\": {}, \"backpressure_secs\": {:.4}}}{}\n",
                r.wire,
                r.wall_secs,
                r.wire_bytes,
                r.backpressure_secs,
                if i + 1 < makespans.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"link_gate\": [\n");
        for (i, r) in gate.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"links\": \"{}\", \"bandwidth_bytes_per_sec\": {:.0}, \"regions_migrated\": {}, \"join_wall_secs\": {:.4}}}{}\n",
                r.label,
                r.bandwidth,
                r.regions_migrated,
                r.wall_secs,
                if i + 1 < gate.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"distributed\": [\n");
        for (i, r) in matrix.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scheme\": \"{}\", \"migrate\": {}, \"output_total\": {}, \"checksum\": {}, \
                 \"regions_migrated\": {}, \"wall_secs\": {:.4}, \"engine_wire_bytes\": {}, \
                 \"shipped_bytes\": {}, \"match\": {}}}{}\n",
                scheme_name(r.scheme),
                r.migrate,
                r.worker.output_total,
                r.worker.checksum,
                r.worker.regions_migrated,
                r.worker.wall_secs,
                r.worker.wire_bytes,
                r.worker.shipped_bytes,
                r.ok,
                if i + 1 < matrix.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"throttle_bytes_per_sec\": {}\n",
            e.throttle.map_or("null".into(), |t| t.to_string())
        ));
        out.push_str("}\n");
        std::fs::write(path, out).expect("write json");
        eprintln!("wrote {path}");
    }
}
