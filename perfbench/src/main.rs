//! The discovery benchmark.
//!
//! ```text
//! perfbench --workload <cold_discovery|repeat_discovery|lake_ingest|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root as
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- <flags>`.
//!
//! `--trace 0` measures the end-to-end metrics with no tracing: the serve
//! workloads drive an in-process `joinmi_serve` daemon over loopback HTTP
//! from closed-loop clients; `lake_ingest` drives the write path of the
//! repository and store layers. `--trace 1` replays the same inputs in
//! process through the public call of each layer, with spans around those
//! calls, and reports per-layer metrics. Every run checks its answers; the
//! last line of standard output is one JSON object with the result (with
//! `all`, each workload prints its own), and a correctness mismatch makes
//! the exit code non-zero.
//!
//! Files are written under `.bench_work/` (removed at exit) and spans of a
//! traced run under `.bench_trace/<workload>.tsv`, both in the working
//! directory.

mod check;
mod client;
mod gen;
mod lake;
mod replay;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

/// The end-to-end metrics every untraced run reports, with their units.
/// On the serve workloads `qps`, `p50_ms` and `p90_ms` are medians over
/// equal time windows of the run, and `bytes_per_row` comes from the shard
/// files. On `lake_ingest`, `qps` counts append cycles and `p50_ms`/`p90_ms`
/// are freshness, both taken over compaction periods.
const END_TO_END: [(&str, &str); 6] = [
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bytes_per_row", "B/row"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload does not exercise reports 0 with 0 samples. Query-path
/// times are self time per measured request; ingest and store times are
/// per call.
const PER_LAYER: [(&str, &str); 42] = [
    ("serve.http.healthz_ms", "ms"),
    ("serve.server.other_ms", "ms"),
    ("serve.wire.parse_ms", "ms"),
    ("serve.wire.request_bytes", "bytes"),
    ("serve.wire.encode_ms", "ms"),
    ("serve.guard.lookup_ms", "ms"),
    ("serve.guard.response_hit_ratio", "ratio"),
    ("serve.shard.merge_ms", "ms"),
    ("serve.shard.open_ms", "ms"),
    ("serve.shard.open_ms_per_group", "ms"),
    ("discovery.query.execute_ms", "ms"),
    ("discovery.query.probe_ms", "ms"),
    ("discovery.query.hits", "count"),
    ("discovery.query.scored", "count"),
    ("discovery.query.pruned", "count"),
    ("discovery.query.early_stopped", "count"),
    ("discovery.query.rank_ms", "ms"),
    ("discovery.query.first_query_ms", "ms"),
    ("discovery.cache.lookup_ms", "ms"),
    ("discovery.cache.estimate_hit_ratio", "ratio"),
    ("discovery.cache.join_hit_ratio", "ratio"),
    ("discovery.cache.evictions", "count"),
    ("discovery.cache.resident_mb", "MB"),
    ("core.join_ms", "ms"),
    ("core.join.pairs", "count"),
    ("estimators.encode_ms", "ms"),
    ("estimators.mixed_ksg_ms", "ms"),
    ("estimators.mixed_ksg.calls", "count"),
    ("estimators.dc_ksg_ms", "ms"),
    ("estimators.dc_ksg.calls", "count"),
    ("estimators.interval_ms", "ms"),
    ("discovery.repository.ingest_rows_per_s", "rows/s"),
    ("discovery.repository.add_tables_ms", "ms"),
    ("discovery.repository.append_tables_ms", "ms"),
    ("discovery.persist.save_ms", "ms"),
    ("discovery.persist.append_to_ms", "ms"),
    ("discovery.persist.append_bytes", "bytes"),
    ("discovery.persist.decoded_candidates", "count"),
    ("discovery.persist.compact_ms", "ms"),
    ("discovery.persist.compact_bytes", "bytes"),
    ("store.append_groups_at_open", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Correctness failures; any makes the run fail.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn problem(&mut self, line: impl Into<String>) {
        self.problems.push(line.into());
    }

    /// The mean self time of each call to a store or ingest entry point,
    /// from the spans of a traced run.
    pub fn per_call_metrics(&mut self, tr: &trace::Tracer) {
        const PER_CALL: [(&str, &str); 6] = [
            (
                "discovery.repository.add_tables_ms",
                "discovery.repository.add_tables",
            ),
            (
                "discovery.repository.append_tables_ms",
                "discovery.repository.append_tables",
            ),
            ("discovery.persist.save_ms", "discovery.persist.save"),
            (
                "discovery.persist.append_to_ms",
                "discovery.persist.append_to",
            ),
            ("discovery.persist.compact_ms", "discovery.persist.compact"),
            ("serve.shard.open_ms", "serve.shard.open"),
        ];
        let all = tr.self_times(|_| true);
        for (metric, span) in PER_CALL {
            let (ns, calls) = all.get(span).copied().unwrap_or((0, 0));
            self.metric(
                metric,
                ns as f64 / 1e6 / calls.max(1) as f64,
                "ms",
                calls as usize,
            );
        }
    }

    /// Records a failed check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

const WORKLOADS: [&str; 3] = ["cold_discovery", "repeat_discovery", "lake_ingest"];

fn main() {
    let args = match parse_args() {
        Ok(args) if args.workload == "all" || WORKLOADS.contains(&args.workload.as_str()) => args,
        Ok(args) => usage(&format!("unknown workload {}", args.workload)),
        Err(e) => usage(&e),
    };
    // `all` runs every workload in turn; each prints its own result.
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut code = 0;
    for workload in workloads {
        let report = run_workload(workload, &args);
        code = code.max(print_report(workload, &args, report));
    }
    std::process::exit(code);
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <cold_discovery|repeat_discovery|lake_ingest|all> \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn run_workload(workload: &str, args: &Args) -> Report {
    let work = PathBuf::from(".bench_work").join(format!(
        "{workload}-{}-{}",
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        return Report {
            problems: vec![format!("cannot create {}: {e}", work.display())],
            ..Report::default()
        };
    }
    let trace_path = Path::new(".bench_trace").join(format!("{workload}.tsv"));
    let seconds = args.seconds as f64;
    let (seed, trace) = (args.seed, args.trace);
    let report = match workload {
        "cold_discovery" => serve::run(serve::Mix::Cold, seed, seconds, trace, &work, &trace_path),
        "repeat_discovery" => {
            serve::run(serve::Mix::Repeat, seed, seconds, trace, &work, &trace_path)
        }
        _ => lake::run(seed, seconds, trace, &work, &trace_path),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    report
}

/// Prints the host and load record, the notes, every metric with its unit
/// and sample count, and finally the one-line JSON result. Returns the exit
/// code.
fn print_report(workload: &str, args: &Args, mut report: Report) -> i32 {
    let cores = stats::available_parallelism();
    let run = format!(
        "run_seconds={} seed={} trace={}",
        args.seconds,
        args.seed,
        u8::from(args.trace)
    );
    println!("workload: {workload}");
    if workload == "lake_ingest" {
        // The repository's ingest pool sizes itself from JOINMI_THREADS,
        // else from the available parallelism.
        let pool = std::env::var("JOINMI_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(cores);
        println!("host: available_parallelism={cores} control_threads=1 ingest_pool_threads={pool} {run}");
    } else {
        let workers = joinmi_serve::ServerConfig::default().workers;
        // A traced run sends its requests from one client, one at a time.
        let clients = match (args.trace, workload) {
            (true, _) => 1,
            (false, "cold_discovery") => serve::Mix::Cold.clients(),
            (false, _) => serve::Mix::Repeat.clients(),
        };
        println!(
            "host: available_parallelism={cores} client_threads={clients} daemon_workers={workers} {run}"
        );
        if clients + workers > cores {
            println!(
                "warning: {clients} client threads + {workers} daemon workers exceed {cores} cores; \
                 clients mostly wait on responses, but they share the cores with the daemon"
            );
        }
    }
    for line in &report.notes {
        println!("{line}");
    }
    // Report exactly the declared metrics, in their declared order.
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        match report.metrics.iter().position(|m| m.name == name) {
            Some(i) => {
                let m = report.metrics.swap_remove(i);
                if m.unit != unit || !m.value.is_finite() {
                    report
                        .problems
                        .push(format!("metric {name} reads {} {}", m.value, m.unit));
                }
                metrics.push(m);
            }
            None => metrics.push(Metric {
                name,
                value: 0.0,
                unit,
                samples: 0,
            }),
        }
    }
    for m in &report.metrics {
        report
            .problems
            .push(format!("metric {} is not declared", m.name));
    }
    report.metrics = metrics;
    println!(
        "error_rate: {:.6} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for m in &report.metrics {
        println!(
            "  {:<40} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for p in &report.problems {
        println!("MISMATCH: {p}");
    }
    let correct = report.problems.is_empty();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}
