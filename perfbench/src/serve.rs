//! The serve workloads: `cold_discovery` and `repeat_discovery`.
//!
//! Both build three shard files from the seeded corpus, start the real
//! daemon in process on `ServerConfig::default()`, and send pre-built
//! request bodies over loopback HTTP. The untraced run measures closed-loop
//! latency and throughput; the traced run sends the same kind of stream from
//! one client, one request at a time, and then replays exactly that
//! sequence in process (see `replay`).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use joinmi_discovery::TableRepository;
use joinmi_serve::json::Json;
use joinmi_serve::{QueryRequest, Server, ServerConfig, ShardSet};
use joinmi_table::Table;

use crate::check::{self, json_int, Row};
use crate::client;
use crate::gen::{self, Corpus, QuerySpec, Rng};
use crate::replay::{Counts, Replayer};
use crate::stats::{self, median, quantile};
use crate::trace::{layer_of, Tracer};
use crate::Report;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every request a distinct base table: both caches always miss.
    Cold,
    /// A skewed draw over a small working set: mostly response-cache hits.
    Repeat,
}

impl Mix {
    /// Closed-loop client threads of the untraced run. `cold_discovery`
    /// runs two, so both daemon workers stay busy. `repeat_discovery` runs
    /// one: its requests are so short that a second client's HTTP work
    /// competes with the workers for the cores, and its run-to-run spread
    /// was about three times that of one client.
    pub fn clients(self) -> usize {
        match self {
            Mix::Cold => 2,
            Mix::Repeat => 1,
        }
    }
}

/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Distinct requests sent before timing on `cold_discovery`, so lazy
/// candidate decoding and the worker workspaces are warm.
const COLD_WARMUP: usize = 4;
/// Distinct base tables of `repeat_discovery`.
const WORKING_SET: usize = 12;
const CONFIDENCE: f64 = 0.95;
/// Query-table index spaces, so the two mixes never share a base table.
const COLD_QUERIES: usize = 0;
const REPEAT_QUERIES: usize = 1_000_000;
const STREAM_REPEAT: u64 = 20_000_000;
/// Request id of spans recorded outside any request (ingest, opens).
const SETUP_REQUEST: u32 = u32::MAX - 1;
/// Per-layer self-time metrics, in ms per measured request, and the spans
/// each one sums.
const SELF_TIME: [(&str, &[&str]); 12] = [
    ("serve.wire.parse_ms", &["serve.wire.parse"]),
    ("serve.wire.encode_ms", &["serve.wire.encode"]),
    (
        "serve.guard.lookup_ms",
        &["serve.guard.lookup", "serve.guard.insert"],
    ),
    ("serve.shard.merge_ms", &["serve.shard.merge"]),
    ("discovery.query.probe_ms", &["discovery.query.probe"]),
    ("discovery.query.rank_ms", &["discovery.query.rank"]),
    (
        "discovery.cache.lookup_ms",
        &[
            "discovery.cache.key",
            "discovery.cache.lookup",
            "discovery.cache.insert",
        ],
    ),
    ("core.join_ms", &["core.join"]),
    ("estimators.encode_ms", &["estimators.encode"]),
    ("estimators.mixed_ksg_ms", &["estimators.mixed_ksg"]),
    ("estimators.dc_ksg_ms", &["estimators.dc_ksg"]),
    ("estimators.interval_ms", &["estimators.interval"]),
];
/// Sampled in-process verifications per run.
const VERIFY_POINT: usize = 6;
const VERIFY_CONFIDENCE: usize = 3;
const VERIFY_REFINE: usize = 6;

pub fn run(
    mix: Mix,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
    trace_path: &Path,
) -> Report {
    let mut report = Report::default();
    let outcome = if trace {
        run_traced(mix, seed, seconds, dir, trace_path, &mut report)
    } else {
        run_timed(mix, seed, seconds, dir, &mut report)
    };
    if let Err(e) = outcome {
        report.problem(e);
    }
    report
}

/// The shard files and the single-repository reference.
struct Fixture {
    corpus: Corpus,
    paths: Vec<PathBuf>,
    /// One in-memory repository holding all tables, in shard order.
    single: TableRepository,
    rows: usize,
    ingest_s: f64,
    file_bytes: u64,
}

fn prepare(seed: u64, dir: &Path, tr: &mut Tracer) -> Result<Fixture, String> {
    tr.set_request(SETUP_REQUEST);
    let corpus = Corpus::new(seed);
    let tables = corpus.base_tables();
    let rows = tables.iter().map(Table::num_rows).sum();
    let mut paths = Vec::new();
    let start = Instant::now();
    for shard in 0..gen::SHARDS {
        let part = tables[gen::shard_range(shard)].to_vec();
        let path = dir.join(format!("shard-{shard}.jmi"));
        let mut repo = TableRepository::new(gen::repo_config());
        tr.span("discovery.repository.add_tables", || repo.add_tables(part))
            .map_err(|e| format!("ingesting shard {shard}: {e}"))?;
        tr.span("discovery.persist.save", || repo.save(&path))
            .map_err(|e| format!("saving shard {shard}: {e}"))?;
        paths.push(path);
    }
    let ingest_s = start.elapsed().as_secs_f64();
    let mut file_bytes = 0;
    for path in &paths {
        file_bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    }
    let mut single = TableRepository::new(gen::repo_config());
    single
        .add_tables(tables)
        .map_err(|e| format!("ingesting the reference repository: {e}"))?;
    Ok(Fixture {
        corpus,
        paths,
        single,
        rows,
        ingest_s,
        file_bytes,
    })
}

/// Pre-built request bodies and the order they are sent in.
struct Stream {
    specs: Vec<QuerySpec>,
    bodies: Vec<String>,
    /// Body indices sent one at a time before timing.
    warmup: Vec<usize>,
    /// Body indices of the timed stream.
    sequence: Vec<usize>,
}

impl Stream {
    fn push(&mut self, spec: QuerySpec) -> usize {
        self.bodies.push(spec.body());
        self.specs.push(spec);
        self.specs.len() - 1
    }
}

fn stream(mix: Mix, corpus: &Corpus, seed: u64, requests: usize) -> Stream {
    let mut s = Stream {
        specs: Vec::new(),
        bodies: Vec::new(),
        warmup: Vec::new(),
        sequence: Vec::new(),
    };
    match mix {
        Mix::Cold => {
            for i in 0..requests + COLD_WARMUP {
                let mut spec =
                    QuerySpec::new(Arc::new(corpus.query_rows(COLD_QUERIES + i, gen::ROWS)));
                if i % 4 == 3 {
                    spec.confidence = Some(CONFIDENCE);
                }
                let body = s.push(spec);
                if i < requests {
                    s.sequence.push(body);
                } else {
                    s.warmup.push(body);
                }
            }
        }
        Mix::Repeat => {
            for j in 0..WORKING_SET {
                let body = s.push(QuerySpec::new(Arc::new(
                    corpus.query_rows(REPEAT_QUERIES + j, gen::ROWS),
                )));
                s.warmup.push(body);
            }
            // Zipf(1) over the working set; one draw in four is a refine.
            let weights: Vec<f64> = (0..WORKING_SET).map(|j| 1.0 / (j as f64 + 1.0)).collect();
            let total: f64 = weights.iter().sum();
            let mut rng = Rng::stream(seed, STREAM_REPEAT);
            for _ in 0..requests {
                let mut u = rng.unit() * total;
                let mut j = 0;
                while j + 1 < WORKING_SET && u >= weights[j] {
                    u -= weights[j];
                    j += 1;
                }
                if rng.below(4) == 0 {
                    let mut refine = s.specs[j].clone();
                    refine.top_k = 1 + rng.below(64);
                    refine.min_join_size = 5 + rng.below(36);
                    let body = s.push(refine);
                    s.sequence.push(body);
                } else {
                    s.sequence.push(j);
                }
            }
        }
    }
    s
}

/// Opens the shard files, starts the daemon and waits for `/v1/healthz`.
/// Returns the daemon and the seconds that took.
fn start_daemon(paths: &[PathBuf], tr: &mut Tracer) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let shards = tr
        .span("serve.shard.open", || ShardSet::open(paths))
        .map_err(|e| format!("opening shards: {e}"))?;
    let server = Server::start(ServerConfig::default(), shards)
        .map_err(|e| format!("starting the daemon: {e}"))?;
    let addr = server.local_addr();
    loop {
        if let Ok((200, _)) = client::request(addr, "GET", "/v1/healthz", "") {
            return Ok((server, start.elapsed().as_secs_f64()));
        }
        if start.elapsed() > Duration::from_secs(30) {
            return Err("the daemon never answered /v1/healthz".to_owned());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Starts the daemon `SETUP_REPS` times, keeping the last one running.
fn setup(paths: &[PathBuf], tr: &mut Tracer) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut old) = server.take() {
            old.shutdown();
        }
        let (started, secs) = start_daemon(paths, tr)?;
        times.push(secs);
        server = Some(started);
    }
    Ok((server.expect("SETUP_REPS is positive"), times))
}

/// The daemon's counters from `GET /v1/shards`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DaemonCounts {
    cache_hits: i64,
    cache_misses: i64,
    join_hits: i64,
    join_misses: i64,
    estimate_hits: i64,
    estimate_misses: i64,
    evictions: i64,
    entries: i64,
    resident_bytes: i64,
    pruned: i64,
    early_stopped: i64,
}

fn scrape(addr: SocketAddr) -> Result<DaemonCounts, String> {
    let (status, body) = client::request(addr, "GET", "/v1/shards", "")
        .map_err(|e| format!("GET /v1/shards: {e}"))?;
    if status != 200 {
        return Err(format!("GET /v1/shards answered {status}"));
    }
    let doc = Json::parse(&body).map_err(|e| format!("GET /v1/shards: {e}"))?;
    let stage = |k: &str| json_int(&doc, &["stage_cache", k]);
    Ok(DaemonCounts {
        cache_hits: json_int(&doc, &["cache_hits"]),
        cache_misses: json_int(&doc, &["cache_misses"]),
        join_hits: stage("join_hits"),
        join_misses: stage("join_misses"),
        estimate_hits: stage("estimate_hits"),
        estimate_misses: stage("estimate_misses"),
        evictions: stage("evictions"),
        entries: stage("entries"),
        resident_bytes: stage("resident_bytes"),
        pruned: json_int(&doc, &["pruned"]),
        early_stopped: json_int(&doc, &["early_stopped"]),
    })
}

fn ratio(part: i64, whole: i64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn note_daemon(report: &mut Report, d: &DaemonCounts) {
    report.note(format!(
        "daemon: response cache {} hits / {} lookups = {:.4}; stage cache L2 {} / {} = {:.4}, \
         L1 {} / {} = {:.4}, {} evictions, {} entries, {} resident bytes; \
         pruned {} early_stopped {}",
        d.cache_hits,
        d.cache_hits + d.cache_misses,
        ratio(d.cache_hits, d.cache_hits + d.cache_misses),
        d.estimate_hits,
        d.estimate_hits + d.estimate_misses,
        ratio(d.estimate_hits, d.estimate_hits + d.estimate_misses),
        d.join_hits,
        d.join_hits + d.join_misses,
        ratio(d.join_hits, d.join_hits + d.join_misses),
        d.evictions,
        d.entries,
        d.resident_bytes,
        d.pruned,
        d.early_stopped,
    ));
}

/// The single-repository ranking of one request, computed in process.
fn single_rows(single: &TableRepository, spec: &QuerySpec) -> Result<Vec<Row>, String> {
    let request = QueryRequest::from_json(&spec.body()).map_err(|e| e.to_string())?;
    let query = request.to_query().map_err(|e| e.to_string())?;
    let ranked = query.execute(single).map_err(|e| e.to_string())?;
    Ok(check::ranked_rows(&ranked))
}

/// Up to `n` evenly spaced items of `items`.
fn spread<T: Copy>(items: &[T], n: usize) -> Vec<T> {
    if items.len() <= n {
        return items.to_vec();
    }
    (0..n).map(|i| items[i * items.len() / n]).collect()
}

/// One request sent outside the closed loop.
struct Sent {
    body: usize,
    latency_ms: f64,
    status: u16,
    response: String,
}

fn send(addr: SocketAddr, stream: &Stream, body: usize) -> Sent {
    let start = Instant::now();
    let (status, response) = client::request(addr, "POST", "/v1/query", &stream.bodies[body])
        .unwrap_or_else(|e| (0, e.to_string()));
    Sent {
        body,
        latency_ms: stats::ms(start.elapsed()),
        status,
        response,
    }
}

fn run_timed(
    mix: Mix,
    seed: u64,
    seconds: f64,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let fx = prepare(seed, dir, &mut off)?;
    // Sized well above the closed loop's rate, so the stream never runs out.
    let requests = match mix {
        Mix::Cold => (seconds * 60.0) as usize + 40,
        Mix::Repeat => (seconds * 400.0) as usize + 200,
    };
    let s = stream(mix, &fx.corpus, seed, requests);
    let (mut server, setup_times) = setup(&fx.paths, &mut off)?;
    let addr = server.local_addr();
    let warm: Vec<Sent> = s.warmup.iter().map(|&b| send(addr, &s, b)).collect();
    let run = client::closed_loop(
        addr,
        &s.bodies,
        &s.sequence,
        mix.clients(),
        Duration::from_secs_f64(seconds),
    );
    let daemon = scrape(addr);
    server.shutdown();
    let daemon = daemon?;

    // qps, p50 and p90 are medians over equal time windows of the run, so
    // a burst of load from outside the benchmark moves only a few windows.
    let run_for = Duration::from_secs_f64(seconds);
    let windows = run.windows(run_for, stats::window_count(seconds));
    let in_windows: usize = windows.iter().map(|w| w.latencies_ms.len()).sum();
    let per_window = |f: &dyn Fn(&client::Window) -> f64| -> f64 {
        let values: Vec<f64> = windows.iter().map(f).filter(|v| v.is_finite()).collect();
        median(&values)
    };
    let failed = run.samples.iter().filter(|x| x.status != 200).count()
        + warm.iter().filter(|x| x.status != 200).count();
    report.attempted = (run.samples.len() + warm.len()) as u64;
    report.failed = failed as u64;
    report.metric("qps", per_window(&|w| w.qps), "1/s", in_windows);
    report.metric(
        "p50_ms",
        per_window(&|w| median(&w.latencies_ms)),
        "ms",
        in_windows,
    );
    report.metric(
        "p90_ms",
        per_window(&|w| quantile(&w.latencies_ms, 0.9)),
        "ms",
        in_windows,
    );
    report.metric("setup_s", median(&setup_times), "s", setup_times.len());
    report.metric("peak_rss_mb", stats::peak_rss_mb(), "MB", 1);
    report.metric(
        "bytes_per_row",
        fx.file_bytes as f64 / fx.rows as f64,
        "B/row",
        1,
    );
    let whole: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    report.note(format!(
        "load: {} closed-loop clients, {} timed requests in {:.1} s, {} warm-up requests; \
         qps/p50/p90 are medians over {} windows of {:.2} s holding {} requests \
         (whole run: p50 {:.2} p90 {:.2} ms); setup_s median of {} daemon start-ups \
         ({:.4} to {:.4} s); \
         ingest {} rows into {} shards ({} bytes) in {:.3} s",
        mix.clients(),
        run.samples.len(),
        seconds,
        warm.len(),
        windows.len(),
        seconds / windows.len() as f64,
        in_windows,
        median(&whole),
        quantile(&whole, 0.9),
        setup_times.len(),
        quantile(&setup_times, 0.0),
        quantile(&setup_times, 1.0),
        fx.rows,
        gen::SHARDS,
        fx.file_bytes,
        fx.ingest_s,
    ));
    // Latency by request class: point and `confidence` requests on
    // `cold_discovery`, exact repeats and refines on `repeat_discovery`.
    let (label_a, label_b) = match mix {
        Mix::Cold => ("point", "confidence"),
        Mix::Repeat => ("repeat", "refine"),
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for x in run.samples.iter().filter(|x| x.status == 200) {
        let body = s.sequence[x.index];
        let second = match mix {
            Mix::Cold => s.specs[body].confidence.is_some(),
            Mix::Repeat => body >= WORKING_SET,
        };
        if second { &mut b } else { &mut a }.push(x.latency_ms);
    }
    report.note(format!(
        "latency by class: {label_a} p50 {:.2} p90 {:.2} ms (n={}); \
         {label_b} p50 {:.2} p90 {:.2} ms (n={})",
        median(&a),
        quantile(&a, 0.9),
        a.len(),
        median(&b),
        quantile(&b, 0.9),
        b.len(),
    ));
    if run.exhausted {
        report.note("warning: the pre-built request stream ran out before the time was up");
    }
    note_daemon(report, &daemon);
    verify(mix, &fx, &s, &warm, &run.samples, report)
}

/// The correctness gate of an untimed run, outside the timed region.
fn verify(
    mix: Mix,
    fx: &Fixture,
    s: &Stream,
    warm: &[Sent],
    samples: &[client::Sample],
    report: &mut Report,
) -> Result<(), String> {
    let mut answers: Vec<(usize, Vec<Row>)> = Vec::new();
    for (body, status, response) in warm.iter().map(|w| (w.body, w.status, &w.response)).chain(
        samples
            .iter()
            .map(|x| (s.sequence[x.index], x.status, &x.body)),
    ) {
        if status != 200 {
            continue;
        }
        match check::response_rows(response) {
            Ok(rows) if !rows.is_empty() => answers.push((body, rows)),
            Ok(_) => report.problem(format!("request {body}: empty ranking")),
            Err(e) => report.problem(format!("request {body}: {e}")),
        }
    }
    let mut checked = 0;
    match mix {
        Mix::Cold => {
            let point: Vec<usize> = (0..answers.len())
                .filter(|&i| s.specs[answers[i].0].confidence.is_none())
                .collect();
            let interval: Vec<usize> = (0..answers.len())
                .filter(|&i| s.specs[answers[i].0].confidence.is_some())
                .collect();
            for i in spread(&point, VERIFY_POINT)
                .into_iter()
                .chain(spread(&interval, VERIFY_CONFIDENCE))
            {
                let (body, rows) = &answers[i];
                let spec = &s.specs[*body];
                let expected = single_rows(&fx.single, spec)?;
                report.check(&expected == rows, || {
                    format!("request {body}: sharded answer differs from the single repository")
                });
                if spec.confidence.is_some() {
                    let mut point = spec.clone();
                    point.confidence = None;
                    let expected = single_rows(&fx.single, &point)?;
                    report.check(check::order(&expected) == check::order(rows), || {
                        format!("request {body}: interval ranking differs from the point ranking")
                    });
                }
                checked += 1;
            }
        }
        Mix::Repeat => {
            // Warm-up answers are computed cold; every exact repeat must
            // equal them, and they must equal the single repository.
            let mut cold: Vec<Option<Vec<Row>>> = vec![None; WORKING_SET];
            for (body, rows) in &answers {
                if *body < WORKING_SET && cold[*body].is_none() {
                    let expected = single_rows(&fx.single, &s.specs[*body])?;
                    report.check(&expected == rows, || {
                        format!("request {body}: sharded answer differs from the single repository")
                    });
                    cold[*body] = Some(rows.clone());
                    checked += 1;
                }
            }
            for (body, rows) in &answers {
                if let Some(Some(first)) = cold.get(*body) {
                    report.check(first == rows, || {
                        format!("request {body}: a repeat answer differs from its cold answer")
                    });
                }
            }
            let refines: Vec<usize> = (0..answers.len())
                .filter(|&i| answers[i].0 >= WORKING_SET)
                .collect();
            for i in spread(&refines, VERIFY_REFINE) {
                let (body, rows) = &answers[i];
                let expected = single_rows(&fx.single, &s.specs[*body])?;
                report.check(&expected == rows, || {
                    format!("refine {body}: answer differs from the single repository")
                });
                checked += 1;
            }
        }
    }
    report.note(format!(
        "verified: {} answers parsed; {checked} checked bit for bit against one in-process \
         repository holding all {} tables",
        answers.len(),
        gen::NUM_TABLES
    ));
    Ok(())
}

/// Two in-process replays of the sent sequence, one recording spans and
/// one not, advanced request by request alongside the daemon in alternating
/// order, so drift in the host's speed reaches all three alike.
struct Replays {
    /// The traced replay.
    traced: Replayer,
    untraced: Replayer,
    off: Tracer,
    /// Wall time of each request, ms, replayed with and without spans.
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    /// Work counts of each request, from the traced replay.
    per_request: Vec<Counts>,
    decoded_after_first: usize,
    /// Replayed responses that differ from the daemon's.
    mismatches: usize,
}

impl Replays {
    fn open(tr: &mut Tracer, paths: &[PathBuf]) -> Result<Self, String> {
        tr.set_request(SETUP_REQUEST);
        let open = |e| format!("opening shards for the replay: {e}");
        let traced = tr
            .span("serve.shard.open", || ShardSet::open(paths))
            .map_err(open)?;
        Ok(Self {
            traced: Replayer::new(traced),
            untraced: Replayer::new(ShardSet::open(paths).map_err(open)?),
            off: Tracer::new(false),
            traced_ms: Vec::new(),
            untraced_ms: Vec::new(),
            per_request: Vec::new(),
            decoded_after_first: 0,
            mismatches: 0,
        })
    }

    /// Replays request `i` both ways; each answer must equal the daemon's.
    fn step(
        &mut self,
        tr: &mut Tracer,
        i: usize,
        body: &str,
        skipped: (i64, i64),
        daemon: &str,
    ) -> Result<(), String> {
        tr.set_request(i as u32);
        // The per-stage replay is exact only where no screen skipped work.
        let decompose = skipped == (0, 0);
        let timed = |replayer: &mut Replayer, tracer: &mut Tracer| {
            let start = Instant::now();
            let (response, counts) = replayer.request(tracer, body, decompose)?;
            Ok::<_, String>((stats::ms(start.elapsed()), response, counts))
        };
        let (on, off) = if i.is_multiple_of(2) {
            let on = timed(&mut self.traced, tr)?;
            (on, timed(&mut self.untraced, &mut self.off)?)
        } else {
            let off = timed(&mut self.untraced, &mut self.off)?;
            (timed(&mut self.traced, tr)?, off)
        };
        self.mismatches += usize::from(on.1 != daemon) + usize::from(off.1 != daemon);
        self.traced_ms.push(on.0);
        self.untraced_ms.push(off.0);
        self.per_request.push(on.2);
        if i == 0 {
            self.decoded_after_first = self
                .traced
                .shards
                .shards()
                .iter()
                .map(|shard| shard.snapshot().decoded_candidates())
                .sum();
        }
        Ok(())
    }
}

fn run_traced(
    mix: Mix,
    seed: u64,
    seconds: f64,
    dir: &Path,
    trace_path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut tr = Tracer::new(true);
    let fx = prepare(seed, dir, &mut tr)?;
    let requests = match mix {
        Mix::Cold => (seconds * 30.0) as usize + 20,
        Mix::Repeat => (seconds * 150.0) as usize + 100,
    };
    let s = stream(mix, &fx.corpus, seed, requests);
    let (mut server, _) = setup(&fx.paths, &mut tr)?;
    let addr = server.local_addr();

    // One client, one request at a time, so the daemon sees the sequence in
    // exactly the order the replays do. After each request the screens'
    // counters say whether the engine skipped work on it.
    let mut replays = Replays::open(&mut tr, &fx.paths)?;
    let mut sent: Vec<Sent> = Vec::new();
    let mut before = scrape(addr)?;
    let budget = Duration::from_secs_f64(seconds * 0.9);
    let mut started: Option<Instant> = None;
    for (i, &body) in s.warmup.iter().chain(&s.sequence).enumerate() {
        if i == s.warmup.len() {
            started = Some(Instant::now());
        }
        if started.is_some_and(|t| t.elapsed() >= budget) {
            break;
        }
        let x = send(addr, &s, body);
        if x.status != 200 {
            return Err(format!("request {i} failed on the daemon: {}", x.status));
        }
        let after = scrape(addr)?;
        let skipped = (
            after.pruned - before.pruned,
            after.early_stopped - before.early_stopped,
        );
        before = after;
        replays.step(&mut tr, i, &s.bodies[body], skipped, &x.response)?;
        sent.push(x);
    }
    let healthz: Vec<f64> = (0..31)
        .map(|_| {
            let start = Instant::now();
            let ok = matches!(
                client::request(addr, "GET", "/v1/healthz", ""),
                Ok((200, _))
            );
            if ok {
                stats::ms(start.elapsed())
            } else {
                f64::NAN
            }
        })
        .collect();
    let daemon = scrape(addr);
    server.shutdown();
    let daemon = daemon?;
    report.attempted = sent.len() as u64;
    note_daemon(report, &daemon);
    report.check(replays.mismatches == 0, || {
        format!(
            "{} of {} replayed responses differ from the daemon's",
            replays.mismatches,
            2 * sent.len()
        )
    });
    let traced_wall_s = replays.traced_ms.iter().sum::<f64>() / 1e3;
    let untraced_wall_s = replays.untraced_ms.iter().sum::<f64>() / 1e3;

    // The replay's counts must agree with the daemon's.
    let (hits, misses) = replays.traced.response_cache.stats();
    let stage = replays.traced.stage_cache.stats();
    let mut total = Counts::default();
    for c in &replays.per_request {
        total.add(c);
    }
    let replayed = DaemonCounts {
        cache_hits: hits as i64,
        cache_misses: misses as i64,
        join_hits: stage.join_hits as i64,
        join_misses: stage.join_misses as i64,
        estimate_hits: stage.estimate_hits as i64,
        estimate_misses: stage.estimate_misses as i64,
        evictions: stage.evictions as i64,
        entries: stage.entries as i64,
        resident_bytes: stage.resident_bytes as i64,
        pruned: total.pruned as i64,
        early_stopped: total.early_stopped as i64,
    };
    report.check(replayed == daemon, || {
        format!("replay counts {replayed:?} disagree with the daemon's {daemon:?}")
    });

    let warm = s.warmup.len();
    let n = sent.len();
    let measured = n - warm;
    let is_measured = |r: u32| (r as usize) >= warm && (r as usize) < n;
    let selfs = tr.self_times(is_measured);
    let per_request = |name: &str| {
        selfs
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e6 / measured.max(1) as f64)
    };
    let inclusive = |name: &str| -> Vec<(u32, f64)> {
        tr.inclusive_by_request(name)
            .into_iter()
            .map(|(r, ns)| (r, ns as f64 / 1e6))
            .collect()
    };
    let execute_ms: f64 = inclusive("discovery.query.execute")
        .iter()
        .filter(|(r, _)| is_measured(*r))
        .map(|(_, ms)| ms)
        .sum::<f64>()
        / measured.max(1) as f64;
    // What the daemon adds around the replayed calls: client latency minus
    // the untraced replay of the same request.
    let other: Vec<f64> = (warm..n)
        .map(|i| sent[i].latency_ms - replays.untraced_ms[i])
        .collect();
    let first_query_ms = inclusive("serve.shard.execute")
        .iter()
        .find(|(r, _)| *r == 0)
        .map_or(0.0, |&(_, ms)| ms);

    let mut m = Counts::default();
    let mut executed = 0;
    let mut hit_requests: Vec<u32> = Vec::new();
    for (i, c) in replays.per_request.iter().enumerate().skip(warm) {
        m.add(c);
        if c.shard_queries > 0 {
            executed += 1;
        } else {
            hit_requests.push(i as u32);
        }
    }
    let decomposed = m.shard_queries - m.opaque_shard_queries;
    let body_bytes: Vec<f64> = sent[warm..]
        .iter()
        .map(|x| s.bodies[x.body].len() as f64)
        .collect();

    report.metric(
        "serve.http.healthz_ms",
        median(&healthz),
        "ms",
        healthz.len(),
    );
    report.metric("serve.server.other_ms", median(&other), "ms", other.len());
    for (metric, spans) in SELF_TIME {
        let ms = spans.iter().map(|span| per_request(span)).sum();
        report.metric(metric, ms, "ms", measured);
    }
    report.per_call_metrics(&tr);
    report.metric(
        "serve.wire.request_bytes",
        stats::mean(&body_bytes),
        "bytes",
        measured,
    );
    report.metric(
        "serve.guard.response_hit_ratio",
        ratio(daemon.cache_hits, daemon.cache_hits + daemon.cache_misses),
        "ratio",
        (daemon.cache_hits + daemon.cache_misses) as usize,
    );
    report.metric("discovery.query.execute_ms", execute_ms, "ms", measured);
    report.metric(
        "discovery.query.hits",
        m.hits as f64 / decomposed.max(1) as f64,
        "count",
        decomposed as usize,
    );
    report.metric(
        "discovery.query.scored",
        m.scored as f64 / m.shard_queries.max(1) as f64,
        "count",
        m.shard_queries as usize,
    );
    report.metric("discovery.query.pruned", m.pruned as f64, "count", executed);
    report.metric(
        "discovery.query.early_stopped",
        m.early_stopped as f64,
        "count",
        executed,
    );
    report.metric("discovery.query.first_query_ms", first_query_ms, "ms", 1);
    report.metric(
        "discovery.cache.estimate_hit_ratio",
        ratio(
            daemon.estimate_hits,
            daemon.estimate_hits + daemon.estimate_misses,
        ),
        "ratio",
        (daemon.estimate_hits + daemon.estimate_misses) as usize,
    );
    report.metric(
        "discovery.cache.join_hit_ratio",
        ratio(daemon.join_hits, daemon.join_hits + daemon.join_misses),
        "ratio",
        (daemon.join_hits + daemon.join_misses) as usize,
    );
    report.metric(
        "discovery.cache.evictions",
        daemon.evictions as f64,
        "count",
        1,
    );
    report.metric(
        "discovery.cache.resident_mb",
        daemon.resident_bytes as f64 / 1_048_576.0,
        "MB",
        1,
    );
    report.metric(
        "core.join.pairs",
        m.join_pairs as f64 / m.joins.max(1) as f64,
        "count",
        m.joins as usize,
    );
    report.metric(
        "estimators.mixed_ksg.calls",
        m.mixed_ksg as f64 / measured.max(1) as f64,
        "count",
        measured,
    );
    report.metric(
        "estimators.dc_ksg.calls",
        m.dc_ksg as f64 / measured.max(1) as f64,
        "count",
        measured,
    );
    report.metric(
        "discovery.repository.ingest_rows_per_s",
        fx.rows as f64 / fx.ingest_s,
        "rows/s",
        1,
    );
    report.metric(
        "discovery.persist.decoded_candidates",
        replays.decoded_after_first as f64,
        "count",
        1,
    );
    report.metric(
        "bench.trace_overhead_pct",
        (traced_wall_s - untraced_wall_s) / untraced_wall_s * 100.0,
        "%",
        2,
    );

    report.note(format!(
        "replay: {n} requests ({warm} warm-up, {measured} measured; {executed} executed, {} \
         response-cache hits), {} shard queries of which {} opaque; replay wall {:.3} s traced, \
         {:.3} s untraced; useful work {} scored of {} probe hits",
        hit_requests.len(),
        m.shard_queries,
        m.opaque_shard_queries,
        traced_wall_s,
        untraced_wall_s,
        m.scored,
        m.hits,
    ));
    note_shares(report, "all measured requests", &selfs, measured);
    if mix == Mix::Repeat && !hit_requests.is_empty() {
        let hit_selfs = tr.self_times(|r| hit_requests.binary_search(&r).is_ok());
        note_shares(
            report,
            "response-cache hits",
            &hit_selfs,
            hit_requests.len(),
        );
    }
    if let Err(e) = tr.write_tsv(trace_path) {
        report.note(format!(
            "warning: could not write {}: {e}",
            trace_path.display()
        ));
    }
    Ok(())
}

/// Prints each layer's self time per request and its share.
fn note_shares(
    report: &mut Report,
    title: &str,
    selfs: &std::collections::BTreeMap<&'static str, (u64, u64)>,
    requests: usize,
) {
    let mut layers: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for (name, (ns, _)) in selfs {
        let layer = if *name == "request" {
            "replay"
        } else {
            layer_of(name)
        };
        *layers.entry(layer).or_default() += ns;
    }
    let total: u64 = layers.values().sum();
    let mut rows: Vec<(&str, u64)> = layers.into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    report.note(format!(
        "self time by layer, {title} ({requests} requests, {:.3} ms per request):",
        total as f64 / 1e6 / requests.max(1) as f64
    ));
    for (layer, ns) in rows {
        report.note(format!(
            "  {layer:<22} {:>10.3} ms/request {:>6.1}%",
            ns as f64 / 1e6 / requests.max(1) as f64,
            100.0 * ns as f64 / total.max(1) as f64
        ));
    }
}
