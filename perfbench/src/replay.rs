//! The in-process replay: one request at a time, through the public call of
//! each layer, in the order the daemon makes them, with a span around each
//! call. The replay and the daemon must answer every request with the same
//! bytes, which makes them the same computation.
//!
//! A shard query is replayed in one of two ways. Where the engine's cheap
//! screens (distinct pruning, interval early termination) skipped nothing,
//! the per-candidate stages are called one by one — probe, stage-cache
//! lookups, sketch join, value encoding, estimator, interval, rank — which
//! splits the engine's time by layer. Where a screen did skip work, the
//! whole `execute_in_cached_stats` call is one span with its `QueryStats`;
//! the replay does not reimplement the screens.

use std::sync::Arc;

use joinmi_discovery::{
    sort_by_mi_desc, CacheScope, CachedEstimate, CachedInterval, CandidateColumn, CandidateSource,
    QueryStageCache, RankedCandidate, RelationshipQuery, RepositorySnapshot, ScoringPolicy,
    StageCacheConfig,
};
use joinmi_estimators::{
    estimate_mi_with_workspace, mi_interval, select_estimator, EstimatorKind, EstimatorWorkspace,
    MiInterval,
};
use joinmi_serve::guard::CachedResult;
use joinmi_serve::{
    QueryCache, QueryRequest, QueryResponse, ServerConfig, ShardSet, ShardedResult,
};

use crate::trace::Tracer;

/// Work counts of replayed requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Shard queries actually executed (response-cache misses × shards).
    pub shard_queries: u64,
    /// Shard queries replayed as one opaque engine call.
    pub opaque_shard_queries: u64,
    /// Probe hits of the decomposed shard queries.
    pub hits: u64,
    pub scored: u64,
    pub pruned: u64,
    pub early_stopped: u64,
    pub joins: u64,
    pub join_pairs: u64,
    pub mixed_ksg: u64,
    pub dc_ksg: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.shard_queries += o.shard_queries;
        self.opaque_shard_queries += o.opaque_shard_queries;
        self.hits += o.hits;
        self.scored += o.scored;
        self.pruned += o.pruned;
        self.early_stopped += o.early_stopped;
        self.joins += o.joins;
        self.join_pairs += o.join_pairs;
        self.mixed_ksg += o.mixed_ksg;
        self.dc_ksg += o.dc_ksg;
    }
}

/// The daemon's per-request state, rebuilt in process: the shard set, one
/// response cache and one stage cache at the daemon's default capacities,
/// and one estimator workspace.
pub struct Replayer {
    pub shards: ShardSet,
    pub response_cache: QueryCache,
    pub stage_cache: QueryStageCache,
    ws: EstimatorWorkspace,
}

impl Replayer {
    pub fn new(shards: ShardSet) -> Self {
        let config = ServerConfig::default();
        let stage_cache = QueryStageCache::with_generation(
            StageCacheConfig {
                max_entries: config.stage_cache_entries,
                max_bytes: config.stage_cache_bytes,
            },
            shards.generation(),
        );
        Self {
            response_cache: QueryCache::new(config.cache_capacity),
            stage_cache,
            shards,
            ws: EstimatorWorkspace::new(),
        }
    }

    /// Replays one `POST /v1/query` body and returns the encoded response
    /// body. `decompose` selects the per-stage replay of each shard query.
    pub fn request(
        &mut self,
        tr: &mut Tracer,
        body: &str,
        decompose: bool,
    ) -> Result<(String, Counts), String> {
        let root = tr.enter("request");
        let request = tr
            .span("serve.wire.parse", || QueryRequest::from_json(body))
            .map_err(|e| format!("replayed request rejected: {e}"))?;
        let generation = self.shards.generation();
        let lookup = tr.enter("serve.guard.lookup");
        let fingerprint = request.fingerprint();
        let key = (fingerprint.0, fingerprint.1, generation);
        let hit = self.response_cache.get(&key);
        tr.exit(lookup);
        let mut counts = Counts::default();
        let response = match hit {
            Some(hit) => QueryResponse {
                results: hit.results.as_ref().clone(),
                shards_queried: hit.shards_queried,
                generation,
                cached: true,
                partial: false,
                degraded_shards: Vec::new(),
            },
            None => {
                let shards_queried = self.shards.shards().len();
                let results = Arc::new(self.execute(tr, &request, decompose, &mut counts)?);
                tr.span("serve.guard.insert", || {
                    self.response_cache.insert(
                        key,
                        Arc::new(CachedResult {
                            results: Arc::clone(&results),
                            shards_queried,
                        }),
                    );
                });
                QueryResponse {
                    results: results.as_ref().clone(),
                    shards_queried,
                    generation,
                    cached: false,
                    partial: false,
                    degraded_shards: Vec::new(),
                }
            }
        };
        let encoded = tr.span("serve.wire.encode", || response.to_json().encode());
        tr.exit(root);
        Ok((encoded, counts))
    }

    /// `ShardSet::execute`, shard by shard, then the global merge.
    fn execute(
        &mut self,
        tr: &mut Tracer,
        request: &QueryRequest,
        decompose: bool,
        counts: &mut Counts,
    ) -> Result<Vec<ShardedResult>, String> {
        let open = tr.enter("serve.shard.execute");
        let query = request.to_query().map_err(|e| e.to_string())?;
        let mut merged = Vec::new();
        for (shard_index, shard) in self.shards.shards().iter().enumerate() {
            let scope = self.stage_cache.scope(shard.candidate_offset() as u64);
            let ranked = execute_shard(
                tr,
                &query,
                shard.snapshot(),
                &mut self.ws,
                &scope,
                decompose,
                counts,
            )?;
            merged.extend(ranked.into_iter().map(|candidate| ShardedResult {
                shard: shard_index,
                shard_candidate_index: candidate.candidate_index,
                global_candidate_index: shard.candidate_offset() + candidate.candidate_index,
                candidate,
            }));
        }
        tr.span("serve.shard.merge", || {
            ShardSet::merge_rank(&mut merged);
            if request.top_k > 0 {
                merged.truncate(request.top_k);
            }
        });
        tr.exit(open);
        Ok(merged)
    }
}

/// One shard query: the engine call as one span, or its stages one by one.
fn execute_shard(
    tr: &mut Tracer,
    query: &RelationshipQuery,
    snapshot: &RepositorySnapshot,
    ws: &mut EstimatorWorkspace,
    scope: &CacheScope<'_>,
    decompose: bool,
    counts: &mut Counts,
) -> Result<Vec<RankedCandidate>, String> {
    let open = tr.enter("discovery.query.execute");
    counts.shard_queries += 1;
    let ranked = if decompose {
        score_stages(tr, query, snapshot, ws, scope, counts)
    } else {
        counts.opaque_shard_queries += 1;
        query
            .execute_in_cached_stats(snapshot, ws, Some(scope))
            .map(|(ranked, stats)| {
                counts.scored += stats.scored as u64;
                counts.pruned += stats.pruned as u64;
                counts.early_stopped += stats.early_stopped as u64;
                ranked
            })
            .map_err(|e| e.to_string())
    };
    tr.exit(open);
    ranked
}

/// The engine's probe → join → estimate → rank stages for one shard, each
/// stage behind its own span, with the same stage-cache reads and writes in
/// the same order as the engine. Valid only where no screen skips a
/// candidate; the identity check against the daemon holds it to that.
fn score_stages(
    tr: &mut Tracer,
    query: &RelationshipQuery,
    snapshot: &RepositorySnapshot,
    ws: &mut EstimatorWorkspace,
    scope: &CacheScope<'_>,
    counts: &mut Counts,
) -> Result<Vec<RankedCandidate>, String> {
    let (query_sketch, hits) = tr
        .span("discovery.query.probe", || query.probe(snapshot))
        .map_err(|e| e.to_string())?;
    counts.hits += hits.len() as u64;
    let left_fp = tr.span("discovery.cache.key", || query_sketch.content_fingerprint());
    let policy = query.policy.cache_code();
    let mut results = Vec::new();
    for &(candidate_index, key_overlap) in &hits {
        let cached = tr.span("discovery.cache.lookup", || {
            scope.get_estimate(left_fp, candidate_index, query.k, policy)
        });
        if let Some(hit) = cached {
            if hit.join_size < query.min_join_size {
                continue;
            }
            let interval = match (query.policy, hit.interval) {
                (ScoringPolicy::Interval { level }, Some(iv)) => Some(MiInterval {
                    variance: iv.variance,
                    ci_lo: iv.ci_lo,
                    ci_hi: iv.ci_hi,
                    level,
                }),
                _ => None,
            };
            let candidate = tr.span("discovery.persist.candidate", || {
                snapshot.candidate(candidate_index)
            });
            results.push(ranked(
                candidate,
                candidate_index,
                key_overlap,
                (hit.mi, hit.estimator, hit.join_size),
                interval,
            ));
            continue;
        }

        let candidate = tr.span("discovery.persist.candidate", || {
            snapshot.candidate(candidate_index)
        });
        let cached_join = tr.span("discovery.cache.lookup", || {
            scope.get_join(left_fp, candidate_index)
        });
        let joined = match cached_join {
            Some(joined) => joined,
            None => {
                let joined =
                    Arc::new(tr.span("core.join", || query_sketch.join(&candidate.sketch)));
                counts.joins += 1;
                counts.join_pairs += joined.len() as u64;
                tr.span("discovery.cache.insert", || {
                    scope.put_join(left_fp, candidate_index, Arc::clone(&joined));
                });
                joined
            }
        };
        if joined.len() < query.min_join_size {
            continue;
        }
        let Ok((x, y)) = tr.span("estimators.encode", || joined.variables()) else {
            continue;
        };
        let kind = select_estimator(&x, &y);
        let name = match kind {
            EstimatorKind::MixedKsg => {
                counts.mixed_ksg += 1;
                "estimators.mixed_ksg"
            }
            EstimatorKind::DcKsg => {
                counts.dc_ksg += 1;
                "estimators.dc_ksg"
            }
            _ => "estimators.other",
        };
        let Ok(estimate) = tr.span(name, || {
            estimate_mi_with_workspace(ws, &x, &y, kind, query.k)
        }) else {
            continue;
        };
        let interval = match query.policy {
            ScoringPolicy::Point => None,
            ScoringPolicy::Interval { level } => {
                match tr.span("estimators.interval", || {
                    mi_interval(&x, &y, estimate.mi, level)
                }) {
                    Ok(iv) => Some(iv),
                    Err(_) => continue,
                }
            }
        };
        tr.span("discovery.cache.insert", || {
            scope.put_estimate(
                left_fp,
                candidate_index,
                query.k,
                policy,
                CachedEstimate {
                    mi: estimate.mi,
                    estimator: estimate.estimator,
                    n: estimate.n,
                    join_size: joined.len(),
                    interval: interval.map(|iv| CachedInterval {
                        variance: iv.variance,
                        ci_lo: iv.ci_lo,
                        ci_hi: iv.ci_hi,
                    }),
                },
            );
        });
        results.push(ranked(
            candidate,
            candidate_index,
            key_overlap,
            (estimate.mi, estimate.estimator, joined.len()),
            interval,
        ));
    }
    counts.scored += results.len() as u64;
    tr.span("discovery.query.rank", || {
        sort_by_mi_desc(&mut results);
        if query.top_k > 0 {
            results.truncate(query.top_k);
        }
    });
    Ok(results)
}

/// One ranked row: the candidate's identity plus its (MI, estimator, join
/// size) score.
fn ranked(
    candidate: &CandidateColumn,
    candidate_index: usize,
    key_overlap: usize,
    (mi, estimator, sketch_join_size): (f64, EstimatorKind, usize),
    interval: Option<MiInterval>,
) -> RankedCandidate {
    RankedCandidate {
        candidate_index,
        table_index: candidate.table_index,
        table_name: candidate.table_name.clone(),
        key_column: candidate.key_column.clone(),
        feature_column: candidate.feature_column.clone(),
        aggregation: candidate.aggregation,
        mi,
        estimator,
        sketch_join_size,
        key_overlap,
        interval,
    }
}
