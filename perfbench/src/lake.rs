//! The `lake_ingest` workload: the write side of the store and sketch
//! layers, with reads beside the writes. One control thread ingests and
//! saves a seeded base corpus, then repeats cycles of append (about 1% of
//! the rows) → `append_to` → `ShardSet::open` → one query on the reopened
//! snapshot, compacting the file every few append groups. No HTTP.
//!
//! Freshness is the time from the start of an append to the first answer
//! on the reopened file; it covers open and lazy decoding together.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use joinmi_discovery::{CompactMode, RankedCandidate, TableRepository};
use joinmi_estimators::EstimatorWorkspace;
use joinmi_serve::{Deadline, QueryRequest, ShardSet};
use joinmi_table::Table;

use crate::check::{self, Row};
use crate::gen::{self, Corpus, QuerySpec};
use crate::stats::{self, mean, median, quantile};
use crate::trace::Tracer;
use crate::Report;

/// Rows appended per table per cycle: 1% of a base table.
const CHUNK_ROWS: usize = gen::ROWS / 100;
/// Append groups between compactions.
const COMPACT_EVERY: usize = 8;
/// Opens of the saved base file per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Query-table index of the lake's query.
const LAKE_QUERY: usize = 2_000_000;
/// Rows of the lake's query table: a small table, so the write path rather
/// than estimation dominates freshness.
const LAKE_QUERY_ROWS: usize = 400;
const SETUP_REQUEST: u32 = u32::MAX - 1;

pub fn run(seed: u64, seconds: f64, trace: bool, dir: &Path, trace_path: &Path) -> Report {
    let mut report = Report::default();
    let outcome = if trace {
        run_traced(seed, seconds, dir, trace_path, &mut report)
    } else {
        run_timed(seed, seconds, dir, &mut report)
    };
    if let Err(e) = outcome {
        report.problem(e);
    }
    report
}

#[derive(Default)]
struct LakeRun {
    setup_s: Vec<f64>,
    freshness_ms: Vec<f64>,
    /// Seconds of each compaction.
    compact_s: Vec<f64>,
    /// (append groups at open, open ms) of every cycle's reopen.
    opens: Vec<(f64, f64)>,
    decoded: Vec<f64>,
    append_bytes: Vec<f64>,
    compact_bytes: Vec<f64>,
    cycles: usize,
    compactions: usize,
    /// Measured time: every cycle plus every compaction.
    timed_s: f64,
    /// Time inside add_tables, save, append_tables, append_to and compact.
    ingest_s: f64,
    rows: usize,
    file_bytes: u64,
    bytes_per_row: f64,
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The ranking of a one-shard answer.
fn answer_rows(results: &[joinmi_serve::ShardedResult]) -> Vec<Row> {
    let ranked: Vec<RankedCandidate> = results
        .iter()
        .map(|r| RankedCandidate {
            candidate_index: r.global_candidate_index,
            ..r.candidate.clone()
        })
        .collect();
    check::ranked_rows(&ranked)
}

fn in_memory_rows(request: &QueryRequest, repo: &TableRepository) -> Result<Vec<Row>, String> {
    let query = request.to_query().map_err(|e| e.to_string())?;
    let ranked = query.execute(repo).map_err(|e| e.to_string())?;
    Ok(check::ranked_rows(&ranked))
}

/// The ranking of the file on disk, opened fresh.
fn file_rows(
    path: &Path,
    request: &QueryRequest,
    ws: &mut EstimatorWorkspace,
) -> Result<Vec<Row>, String> {
    let shards = ShardSet::open(&[path]).map_err(|e| e.to_string())?;
    let outcome = shards
        .execute(request, ws, None, Deadline::unlimited(), 0, &[])
        .map_err(|e| format!("{e:?}"))?;
    Ok(answer_rows(&outcome.results))
}

/// One lake: the writer's in-memory repository, its file, and what the
/// cycles measured so far.
struct Lake {
    corpus: Corpus,
    path: PathBuf,
    repo: TableRepository,
    request: QueryRequest,
    ws: EstimatorWorkspace,
    /// Every table's rows as ingested: the base, extended by each chunk.
    tables: Vec<Table>,
    since_compaction: usize,
    mismatches: Vec<String>,
    run: LakeRun,
}

impl Lake {
    /// Ingests and saves the base corpus, then opens the saved file
    /// `SETUP_REPS` times.
    fn open(seed: u64, dir: &Path, tr: &mut Tracer) -> Result<Self, String> {
        let mut run = LakeRun::default();
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        tr.set_request(SETUP_REQUEST);
        let corpus = Corpus::new(seed);
        let tables = corpus.base_tables();
        let path = dir.join("lake.jmi");
        run.rows = tables.iter().map(Table::num_rows).sum();
        let start = Instant::now();
        let mut repo = TableRepository::new(gen::repo_config());
        tr.span("discovery.repository.add_tables", || {
            repo.add_tables(tables.clone())
        })
        .map_err(|e| format!("ingesting the base corpus: {e}"))?;
        tr.span("discovery.persist.save", || repo.save(&path))
            .map_err(|e| format!("saving the base corpus: {e}"))?;
        run.ingest_s += start.elapsed().as_secs_f64();
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            tr.span("serve.shard.open", || ShardSet::open(&[&path]))
                .map_err(|e| format!("opening the base file: {e}"))?;
            run.setup_s.push(start.elapsed().as_secs_f64());
        }
        let spec = QuerySpec::new(Arc::new(corpus.query_rows(LAKE_QUERY, LAKE_QUERY_ROWS)));
        let request = QueryRequest::from_json(&spec.body()).map_err(|e| e.to_string())?;
        Ok(Self {
            corpus,
            path,
            repo,
            request,
            ws: EstimatorWorkspace::new(),
            tables,
            since_compaction: 0,
            mismatches: Vec::new(),
            run,
        })
    }

    /// Whether a run that wants `seconds` of measured time may stop: only
    /// between compaction periods, so every run's freshness samples cover
    /// each append-group count equally often.
    fn done(&self, seconds: f64) -> bool {
        self.run.timed_s >= seconds && self.since_compaction == 0
    }

    /// One cycle: append a chunk, persist it, reopen the file and answer one
    /// query on it; compact at the end of a period. The answers are checked
    /// against the in-memory repository outside the measured time.
    fn cycle(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let cycle = self.run.cycles;
        let chunks = self.corpus.append_chunk(cycle, CHUNK_ROWS);
        let len_before = file_len(&self.path)?;
        tr.set_request(cycle as u32);

        let start = Instant::now();
        tr.span("discovery.repository.append_tables", || {
            self.repo.append_tables(&chunks)
        })
        .map_err(|e| format!("appending chunk {cycle}: {e}"))?;
        tr.span("discovery.persist.append_to", || {
            self.repo.append_to(&self.path)
        })
        .map_err(|e| format!("persisting chunk {cycle}: {e}"))?;
        let ingested = start.elapsed();
        let opened = Instant::now();
        let shards = tr
            .span("serve.shard.open", || ShardSet::open(&[&self.path]))
            .map_err(|e| format!("reopening after chunk {cycle}: {e}"))?;
        let open_ms = stats::ms(opened.elapsed());
        let outcome = tr
            .span("discovery.query.first_query", || {
                shards.execute(
                    &self.request,
                    &mut self.ws,
                    None,
                    Deadline::unlimited(),
                    0,
                    &[],
                )
            })
            .map_err(|e| format!("querying after chunk {cycle}: {e:?}"))?;
        let fresh = start.elapsed();

        let run = &mut self.run;
        run.ingest_s += ingested.as_secs_f64();
        run.timed_s += fresh.as_secs_f64();
        run.freshness_ms.push(stats::ms(fresh));
        let snapshot = shards.shards()[0].snapshot();
        run.opens.push((snapshot.append_groups() as f64, open_ms));
        run.decoded.push(snapshot.decoded_candidates() as f64);
        run.append_bytes
            .push((file_len(&self.path)? - len_before) as f64);
        run.cycles += 1;
        for (table, chunk) in self.tables.iter_mut().zip(&chunks) {
            run.rows += chunk.num_rows();
            table
                .extend_rows(chunk)
                .map_err(|e| format!("keeping chunk {cycle}: {e}"))?;
        }

        // Persisted == in-memory, outside the measured time.
        if answer_rows(&outcome.results) != in_memory_rows(&self.request, &self.repo)? {
            self.mismatches.push(format!("reopen after chunk {cycle}"));
        }
        self.since_compaction += 1;
        if self.since_compaction == COMPACT_EVERY {
            self.compact(tr)?;
            if file_rows(&self.path, &self.request, &mut self.ws)?
                != in_memory_rows(&self.request, &self.repo)?
            {
                self.mismatches
                    .push(format!("compaction {}", self.run.compactions));
            }
        }
        Ok(())
    }

    fn compact(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let start = Instant::now();
        let done = tr
            .span("discovery.persist.compact", || {
                TableRepository::compact(&self.path, CompactMode::Preserve)
            })
            .map_err(|e| format!("compacting: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        let run = &mut self.run;
        run.ingest_s += secs;
        run.timed_s += secs;
        run.compact_s.push(secs);
        run.compactions += 1;
        run.compact_bytes.push(done.bytes_after as f64);
        if run.compactions == 1 {
            // Bytes per row after the first compaction: the same rows on
            // every run of a seed, however fast the run went.
            run.bytes_per_row = done.bytes_after as f64 / run.rows as f64;
        }
        self.since_compaction = 0;
        Ok(())
    }

    /// Compacts what is left and checks the final file against a one-shot
    /// in-memory ingest of the same rows.
    fn finish(mut self, tr: &mut Tracer, report: &mut Report) -> Result<LakeRun, String> {
        if self.since_compaction > 0 {
            tr.set_request(SETUP_REQUEST);
            self.compact(tr)?;
        }
        self.run.file_bytes = file_len(&self.path)?;
        let mut one_shot = TableRepository::new(gen::repo_config());
        one_shot
            .add_tables(self.tables)
            .map_err(|e| format!("one-shot ingest: {e}"))?;
        if file_rows(&self.path, &self.request, &mut self.ws)?
            != in_memory_rows(&self.request, &one_shot)?
        {
            self.mismatches
                .push("the final file against a one-shot ingest".to_owned());
        }
        report.check(self.mismatches.is_empty(), || {
            format!(
                "persisted ranking differs from the in-memory one: {}",
                self.mismatches.join(", ")
            )
        });
        report.note(format!(
            "verified: {} reopens, {} compacted files and the final file ranked bit for bit \
             like an in-memory ingest of the same rows",
            self.run.cycles, self.run.compactions
        ));
        Ok(self.run)
    }
}

fn run_timed(seed: u64, seconds: f64, dir: &Path, report: &mut Report) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let mut lake = Lake::open(seed, dir, &mut off)?;
    while !lake.done(seconds) {
        lake.cycle(&mut off)?;
    }
    let run = lake.finish(&mut off, report)?;
    report.attempted = run.cycles as u64;
    // Every compaction period has the same shape: one to COMPACT_EVERY
    // append groups, then a compaction. qps is the median over periods;
    // p50 and p90 are taken over the median freshness at each position in
    // the period. A burst of load from outside the benchmark then moves
    // only a few periods and leaves these medians alone.
    let periods: Vec<f64> = run
        .freshness_ms
        .chunks(COMPACT_EVERY)
        .zip(&run.compact_s)
        .map(|(fresh, compact)| fresh.len() as f64 / (fresh.iter().sum::<f64>() / 1e3 + compact))
        .collect();
    let by_position: Vec<f64> = (0..COMPACT_EVERY)
        .map(|g| {
            let at: Vec<f64> = run
                .freshness_ms
                .iter()
                .skip(g)
                .step_by(COMPACT_EVERY)
                .copied()
                .collect();
            median(&at)
        })
        .filter(|v| v.is_finite())
        .collect();
    let samples = run.freshness_ms.len();
    report.metric("qps", median(&periods), "1/s", samples);
    report.metric("p50_ms", median(&by_position), "ms", samples);
    report.metric("p90_ms", quantile(&by_position, 0.9), "ms", samples);
    report.metric("setup_s", median(&run.setup_s), "s", run.setup_s.len());
    report.metric("peak_rss_mb", stats::peak_rss_mb(), "MB", 1);
    report.metric("bytes_per_row", run.bytes_per_row, "B/row", 1);
    report.note(format!(
        "lake: {} append cycles of {CHUNK_ROWS} rows x {} tables and {} compactions in {:.2} s \
         measured; qps is the median over {} compaction periods of cycles per measured second \
         and p50_ms/p90_ms are freshness (append start to first answer on the reopened file) \
         over the median at each position in a period (whole run: {:.3} cycles/s, p50 {:.2} p90 {:.2} ms); {} rows ingested in \
         {:.3} s ({:.0} rows/s); final file {} bytes",
        run.cycles,
        gen::NUM_TABLES,
        run.compactions,
        run.timed_s,
        periods.len(),
        run.cycles as f64 / run.timed_s,
        median(&run.freshness_ms),
        quantile(&run.freshness_ms, 0.9),
        run.rows,
        run.ingest_s,
        run.rows as f64 / run.ingest_s,
        run.file_bytes,
    ));
    Ok(())
}

fn run_traced(
    seed: u64,
    seconds: f64,
    dir: &Path,
    trace_path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // A traced and an untraced lake over the same inputs, cycle by cycle in
    // alternating order, so drift in the host's speed reaches both alike.
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut traced = Lake::open(seed, &dir.join("traced"), &mut tr)?;
    let mut untraced = Lake::open(seed, &dir.join("untraced"), &mut off)?;
    while !traced.done(seconds / 2.0) {
        if traced.run.cycles.is_multiple_of(2) {
            traced.cycle(&mut tr)?;
            untraced.cycle(&mut off)?;
        } else {
            untraced.cycle(&mut off)?;
            traced.cycle(&mut tr)?;
        }
    }
    let traced = traced.finish(&mut tr, report)?;
    let untraced = untraced.finish(&mut off, report)?;
    report.attempted = (traced.cycles + untraced.cycles) as u64;

    let groups: Vec<f64> = traced.opens.iter().map(|o| o.0).collect();
    let open_ms: Vec<f64> = traced.opens.iter().map(|o| o.1).collect();
    let query_ms: Vec<f64> = tr
        .inclusive_by_request("discovery.query.first_query")
        .values()
        .map(|&ns| ns as f64 / 1e6)
        .collect();

    report.metric(
        "discovery.repository.ingest_rows_per_s",
        traced.rows as f64 / traced.ingest_s,
        "rows/s",
        traced.cycles + 1,
    );
    report.per_call_metrics(&tr);
    report.metric(
        "discovery.persist.append_bytes",
        mean(&traced.append_bytes),
        "bytes",
        traced.append_bytes.len(),
    );
    report.metric(
        "serve.shard.open_ms_per_group",
        stats::slope(&groups, &open_ms),
        "ms",
        open_ms.len(),
    );
    report.metric(
        "store.append_groups_at_open",
        mean(&groups),
        "count",
        groups.len(),
    );
    report.metric(
        "discovery.persist.decoded_candidates",
        mean(&traced.decoded),
        "count",
        traced.decoded.len(),
    );
    report.metric(
        "discovery.query.first_query_ms",
        mean(&query_ms),
        "ms",
        query_ms.len(),
    );
    report.metric(
        "discovery.persist.compact_bytes",
        mean(&traced.compact_bytes),
        "bytes",
        traced.compact_bytes.len(),
    );
    report.metric(
        "bench.trace_overhead_pct",
        (traced.timed_s - untraced.timed_s) / untraced.timed_s * 100.0,
        "%",
        2,
    );

    // Reopen cost by the number of append groups the file carries.
    let mut by_groups: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(g, ms) in &traced.opens {
        by_groups.entry(g as u64).or_default().push(ms);
    }
    let line: Vec<String> = by_groups
        .iter()
        .map(|(g, ms)| format!("{g}:{:.1}ms(n={})", median(ms), ms.len()))
        .collect();
    report.note(format!(
        "reopen median by append groups: {}",
        line.join(" ")
    ));
    report.note(format!(
        "traced {} cycles in {:.3} s measured, untraced the same cycles in {:.3} s",
        traced.cycles, traced.timed_s, untraced.timed_s
    ));
    if let Err(e) = tr.write_tsv(trace_path) {
        report.note(format!(
            "warning: could not write {}: {e}",
            trace_path.display()
        ));
    }
    Ok(())
}
