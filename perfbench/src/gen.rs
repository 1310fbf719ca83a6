//! Seeded input generation. The candidate corpus, every request body and
//! every append chunk derive from the `--seed` argument alone, so the same
//! seed gives the same inputs; the daemon and the library only ever see the
//! generated tables and bodies.
//!
//! The corpus plants real relationships: every join key carries a small
//! latent vector, candidate features are noisy functions of one latent
//! coordinate (or pure noise), and a query's target mixes the coordinates.
//! Two of the eight features per table are categorical strings, so both
//! Mixed-KSG (numeric–numeric) and DC-KSG (categorical–numeric) run.

use joinmi_discovery::RepositoryConfig;
use joinmi_sketch::{SketchConfig, SketchKind};
use joinmi_table::Table;

/// Candidate tables in the corpus.
pub const NUM_TABLES: usize = 32;
/// Feature columns per table: six numeric, then two categorical.
pub const FEATURES: usize = 8;
const NUMERIC_FEATURES: usize = 6;
/// Size of the shared join-key universe.
pub const KEY_UNIVERSE: usize = 600;
/// Rows per candidate table and per query table.
pub const ROWS: usize = 2_000;
/// Shard files the daemon serves.
pub const SHARDS: usize = 3;
/// Sketch size of both the candidates and the queries.
pub const SKETCH_SIZE: usize = 512;
/// Sketch seed of both the candidates and the queries.
pub const SKETCH_SEED: u64 = 3;
const LATENT_DIMS: usize = 4;

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B);
        let mix = rng.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng(mix)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Stream identifiers, so no two uses of one seed share random numbers.
const STREAM_LATENT: u64 = 1;
const STREAM_PLAN: u64 = 2;
const STREAM_TABLE: u64 = 1_000;
const STREAM_CHUNK: u64 = 100_000;
const STREAM_QUERY: u64 = 10_000_000;

/// How one feature column derives from the key's latent vector.
#[derive(Debug, Clone, Copy)]
struct FeaturePlan {
    dim: usize,
    weight: f64,
    noise: f64,
}

/// The seeded candidate corpus: per-key latents plus a per-table recipe
/// that can produce any number of rows (base tables and append chunks).
pub struct Corpus {
    seed: u64,
    latent: Vec<[f64; LATENT_DIMS]>,
    plans: Vec<[FeaturePlan; FEATURES]>,
}

pub fn key_name(id: usize) -> String {
    format!("k-{id:05}")
}

impl Corpus {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::stream(seed, STREAM_LATENT);
        let latent = (0..KEY_UNIVERSE)
            .map(|_| std::array::from_fn(|_| rng.normal()))
            .collect();
        let mut rng = Rng::stream(seed, STREAM_PLAN);
        let plans = (0..NUM_TABLES)
            .map(|_| {
                std::array::from_fn(|_| {
                    let informative = rng.unit() < 0.7;
                    FeaturePlan {
                        dim: rng.below(LATENT_DIMS),
                        weight: if informative { 0.3 + rng.unit() } else { 0.0 },
                        noise: 0.2 + rng.unit(),
                    }
                })
            })
            .collect();
        Self {
            seed,
            latent,
            plans,
        }
    }

    pub fn table_name(index: usize) -> String {
        format!("cand{index:02}")
    }

    /// `rows` rows of candidate table `index`, drawn from `rng`.
    fn rows(&self, index: usize, rows: usize, rng: &mut Rng) -> Table {
        let keys: Vec<usize> = (0..rows).map(|_| rng.below(KEY_UNIVERSE)).collect();
        let mut builder = Table::builder(Self::table_name(index))
            .push_str_column("key", keys.iter().map(|&k| key_name(k)));
        for (f, plan) in self.plans[index].iter().enumerate() {
            let values: Vec<f64> = keys
                .iter()
                .map(|&k| plan.weight * self.latent[k][plan.dim] + plan.noise * rng.normal())
                .collect();
            builder = if f < NUMERIC_FEATURES {
                builder.push_float_column(&format!("f{f}"), values)
            } else {
                // Five ordered buckets of the same noisy signal.
                let buckets = values
                    .iter()
                    .map(|v| format!("c{}", (v * 1.5 + 2.5).floor().clamp(0.0, 4.0) as u8));
                builder.push_str_column(&format!("f{f}"), buckets)
            };
        }
        builder
            .build()
            .expect("generated candidate table is well-formed")
    }

    /// The base corpus: `ROWS` rows for every table.
    pub fn base_tables(&self) -> Vec<Table> {
        (0..NUM_TABLES)
            .map(|t| {
                let mut rng = Rng::stream(self.seed, STREAM_TABLE + t as u64);
                self.rows(t, ROWS, &mut rng)
            })
            .collect()
    }

    /// Append chunk `chunk`: `rows` fresh rows for every table.
    pub fn append_chunk(&self, chunk: usize, rows: usize) -> Vec<Table> {
        (0..NUM_TABLES)
            .map(|t| {
                let stream = STREAM_CHUNK + (chunk * NUM_TABLES + t) as u64;
                let mut rng = Rng::stream(self.seed, stream);
                self.rows(t, rows, &mut rng)
            })
            .collect()
    }

    /// Query table number `index`: `rows` (key, integer target) rows whose
    /// target mixes the key's latent coordinates with query-specific weights.
    pub fn query_rows(&self, index: usize, rows: usize) -> Vec<(usize, i64)> {
        let mut rng = Rng::stream(self.seed, STREAM_QUERY + index as u64);
        let weights: [f64; LATENT_DIMS] = std::array::from_fn(|_| rng.normal());
        let noise = 0.3 + rng.unit();
        (0..rows)
            .map(|_| {
                let k = rng.below(KEY_UNIVERSE);
                let signal: f64 = weights
                    .iter()
                    .zip(&self.latent[k])
                    .map(|(w, z)| w * z)
                    .sum();
                (
                    k,
                    (20.0 * (signal + noise * rng.normal())).round() as i64 + 500,
                )
            })
            .collect()
    }
}

/// The repository configuration every shard and the lake use. Eight pairs
/// per table keeps exactly the `key` × feature candidates (the categorical
/// columns would otherwise also be tried as join keys).
pub fn repo_config() -> RepositoryConfig {
    RepositoryConfig {
        sketch_kind: SketchKind::Tupsk,
        sketch: SketchConfig::new(SKETCH_SIZE, SKETCH_SEED),
        max_pairs_per_table: FEATURES,
        ..RepositoryConfig::default()
    }
}

/// The tables of shard `shard`, contiguous in corpus order, so the sharded
/// ranking equals the single-repository ranking.
pub fn shard_range(shard: usize) -> std::ops::Range<usize> {
    let chunk = NUM_TABLES.div_ceil(SHARDS);
    shard * chunk..NUM_TABLES.min((shard + 1) * chunk)
}

/// One query as the client sends it.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub rows: std::sync::Arc<Vec<(usize, i64)>>,
    pub top_k: usize,
    pub min_join_size: usize,
    pub confidence: Option<f64>,
}

impl QuerySpec {
    pub fn new(rows: std::sync::Arc<Vec<(usize, i64)>>) -> Self {
        Self {
            rows,
            top_k: 10,
            min_join_size: 20,
            confidence: None,
        }
    }

    /// The `POST /v1/query` body.
    pub fn body(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 18 + 256);
        out.push_str(r#"{"key_column":"key","target_column":"target","rows":["#);
        for (i, (key, target)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[\"{}\",{target}]", key_name(*key)));
        }
        out.push_str(&format!(
            r#"],"top_k":{},"min_join_size":{},"sketch_kind":"TUPSK","sketch_size":{SKETCH_SIZE},"sketch_seed":{SKETCH_SEED}"#,
            self.top_k, self.min_join_size
        ));
        if let Some(level) = self.confidence {
            out.push_str(&format!(r#","confidence":{level}"#));
        }
        out.push('}');
        out
    }
}
