//! Repository persistence: the offline-ingest → online-query split, plus the
//! on-disk **append path** that lets an ingest daemon extend a repository
//! without rewriting it.
//!
//! A [`TableRepository`] is expensive to build (every candidate table is
//! profiled and sketched) and cheap to use — exactly the paper's pitch that
//! sketches are "built in an offline preprocessing stage" and amortized over
//! many queries. This module makes the expensive half durable:
//!
//! * [`TableRepository::save`] writes a versioned, checksummed artifact
//!   containing the config, table profiles, joinability-index postings, and
//!   every candidate's sketch **and incremental-builder state** (the raw
//!   tables are deliberately *not* persisted — queries never touch them).
//! * [`TableRepository::load`] reads it back eagerly into a sketch-only
//!   repository that answers queries bit-identically to the original — and,
//!   thanks to the builder state, accepts [`TableRepository::append_rows`].
//! * [`TableRepository::load_mmap_like`] opens the artifact as a read-only
//!   [`RepositorySnapshot`]: the whole file is read into one buffer, every
//!   section checksum is verified up front, but candidate sketches are only
//!   decoded on first access — a query prunes through the persisted index
//!   and decodes just the surviving candidates.
//! * [`TableRepository::append_to`] writes the changes accumulated since the
//!   file was loaded as an **append group** after the existing payload:
//!   updated candidate sections plus an index delta, each checksummed. The
//!   existing bytes are never touched, so a torn append (crash mid-write)
//!   surfaces as a typed [`StoreError`] at the next open, never as silent
//!   corruption of the base artifact.
//!
//! Accumulated append groups cost read time (every group is re-validated and
//! replayed at open), so two maintenance operations complete the lifecycle:
//!
//! * [`TableRepository::compact`] folds a file's append groups back into a
//!   fresh flat base — written to a sibling temp file, fsynced, then atomically
//!   renamed over the original — restoring the flat-save read profile while
//!   answering queries bit-identically.
//! * **Seal mode** ([`CompactMode::Seal`]) additionally drops all
//!   incremental-builder state for frozen corpora: the file shrinks to the
//!   lean pre-append layout and further appends are rejected with a typed
//!   [`StoreError::Sealed`] / [`TableError`](joinmi_table::TableError)
//!   `::Sealed`.
//!
//! # Repository file layout (format v3)
//!
//! ```text
//! header            magic b"JMIS" | version = 3 | artifact = Repository
//! REPO_META         sketch kind/size/seed, max pairs, table + candidate
//!                   counts, distinct-sketch capacity, flags (bit 0 = sealed)
//! PROFILES          per table: name, rows, per-column stats
//! FEATURE_DISTINCT  per table, per column: bounded KMV distinct sketch
//! INDEX             joinability postings (digest → candidate ids) + counts
//! per candidate:
//!   CANDIDATE        identity fields + embedded sketch
//!   CANDIDATE_STATE  incremental-builder state (seen keys, KMV selection
//!                    entries with aggregation states) — omitted when sealed
//! zero or more append groups (none when sealed), each:
//!   APPEND_META       updated-candidate count + refreshed profiles +
//!                     refreshed distinct sketches
//!   per updated candidate:
//!     CANDIDATE_UPDATE  candidate id + identity + refreshed sketch
//!     CANDIDATE_STATE   refreshed builder state
//!   INDEX_DELTA       ordered postings deltas (removed / added / sizes)
//! ```
//!
//! v3 is the only readable repository layout: a v1 or v2 header is rejected
//! with a typed [`StoreError::UnsupportedVersion`] asking for a re-ingest.
//! Earlier readers reject v3 files cleanly via the version check — the bump
//! exists precisely so an old binary never misparses a new section as
//! trailing garbage.
//!
//! The byte-level specification of all of the above lives in
//! `docs/FORMAT.md` at the repository root.

use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::OnceLock;

use joinmi_sketch::persist::{aggregation_from_tag, aggregation_tag, dtype_from_tag, dtype_tag};
use joinmi_sketch::{incremental, ColumnSketch, DistinctSketch, RightSketchBuilder, SketchConfig};
use joinmi_store::{
    read_header, scan_section, write_header, ArtifactKind, GroupGrammar, Reader, RecoveryReport,
    Result, SectionBuilder, StoreError, Writer, FORMAT_VERSION,
};

use crate::index::{IndexDelta, JoinabilityIndex};
use crate::profile::{ColumnProfile, TableProfile};
use crate::repository::{CandidateColumn, CandidateSource, RepositoryConfig, TableRepository};

/// Section tag: repository configuration and counts.
pub const SECTION_REPO_META: u8 = 0x10;
/// Section tag: table profiles.
pub const SECTION_PROFILES: u8 = 0x11;
/// Section tag: joinability-index postings.
pub const SECTION_INDEX: u8 = 0x12;
/// Section tag: one candidate column (identity + embedded sketch).
pub const SECTION_CANDIDATE: u8 = 0x13;
/// Section tag: one candidate's incremental-builder state.
pub const SECTION_CANDIDATE_STATE: u8 = 0x14;
/// Section tag: header of one append group.
pub const SECTION_APPEND_META: u8 = 0x15;
/// Section tag: one updated candidate inside an append group.
pub const SECTION_CANDIDATE_UPDATE: u8 = 0x16;
/// Section tag: the ordered index deltas of one append group.
pub const SECTION_INDEX_DELTA: u8 = 0x17;
/// Section tag: per-column bounded distinct sketches.
pub const SECTION_FEATURE_DISTINCT: u8 = 0x18;

/// The v2 repository append-group grammar for the structural repair scanner
/// in [`joinmi_store::repair`]: a group opens with APPEND_META and commits
/// with INDEX_DELTA.
pub const REPOSITORY_GROUP_GRAMMAR: GroupGrammar = GroupGrammar {
    start_tag: SECTION_APPEND_META,
    end_tag: SECTION_INDEX_DELTA,
};

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Flag bit in the v3 REPO_META flags byte: the repository is sealed.
const META_FLAG_SEALED: u8 = 0x01;

fn write_repo_meta<W: Write>(
    w: &mut Writer<W>,
    config: &RepositoryConfig,
    num_tables: usize,
    num_candidates: usize,
    sealed: bool,
) -> Result<()> {
    let mut meta = SectionBuilder::new();
    {
        let m = meta.writer();
        m.write_u8(joinmi_sketch::persist::sketch_kind_tag(config.sketch_kind))?;
        m.write_len(config.sketch.size)?;
        m.write_u64(config.sketch.seed)?;
        m.write_len(config.max_pairs_per_table)?;
        m.write_len(num_tables)?;
        m.write_len(num_candidates)?;
        // v3 trailer: distinct-sketch capacity + flags byte.
        m.write_len(config.distinct_sketch_size)?;
        m.write_u8(if sealed { META_FLAG_SEALED } else { 0 })?;
    }
    meta.finish(SECTION_REPO_META, w)
}

/// Encodes the profiles payload (shared by the PROFILES section and the
/// refreshed profiles inside APPEND_META).
fn encode_profiles(p: &mut Writer<Vec<u8>>, profiles: &[TableProfile]) -> Result<()> {
    p.write_len(profiles.len())?;
    for profile in profiles {
        p.write_str(&profile.table)?;
        p.write_len(profile.rows)?;
        p.write_len(profile.columns.len())?;
        for column in &profile.columns {
            p.write_str(&column.name)?;
            p.write_u8(dtype_tag(column.dtype))?;
            p.write_len(column.distinct)?;
            p.write_len(column.nulls)?;
            p.write_len(column.rows)?;
        }
    }
    Ok(())
}

fn write_profiles<W: Write>(w: &mut Writer<W>, profiles: &[TableProfile]) -> Result<()> {
    let mut section = SectionBuilder::new();
    encode_profiles(section.writer(), profiles)?;
    section.finish(SECTION_PROFILES, w)
}

/// Encodes the per-column distinct sketches (shared by the FEATURE_DISTINCT
/// section and the refreshed block inside APPEND_META payloads). Each column
/// carries a presence byte, so a column without a sketch survives a re-save.
fn encode_distincts(
    p: &mut Writer<Vec<u8>>,
    distincts: &[Vec<Option<DistinctSketch>>],
) -> Result<()> {
    p.write_len(distincts.len())?;
    for table in distincts {
        p.write_len(table.len())?;
        for sketch in table {
            match sketch {
                None => p.write_u8(0)?,
                Some(sketch) => {
                    p.write_u8(1)?;
                    p.write_len(sketch.capacity())?;
                    p.write_len(sketch.len())?;
                    for digest in sketch.digests() {
                        p.write_u64(digest)?;
                    }
                }
            }
        }
    }
    Ok(())
}

fn write_distincts<W: Write>(
    w: &mut Writer<W>,
    distincts: &[Vec<Option<DistinctSketch>>],
) -> Result<()> {
    let mut section = SectionBuilder::new();
    encode_distincts(section.writer(), distincts)?;
    section.finish(SECTION_FEATURE_DISTINCT, w)
}

/// Decodes a distinct-sketch block, validating its shape against the decoded
/// profiles (one entry per table, one per column) and each sketch's
/// invariants (count ≤ capacity, digests strictly increasing).
fn decode_distincts<R: Read>(
    p: &mut Reader<R>,
    profiles: &[TableProfile],
) -> Result<Vec<Vec<Option<DistinctSketch>>>> {
    let table_count = p.read_len("distinct sketch table count")?;
    if table_count != profiles.len() {
        return Err(StoreError::corrupt(format!(
            "distinct sketch block covers {table_count} tables, profiles cover {}",
            profiles.len()
        )));
    }
    let mut distincts = Vec::with_capacity(table_count);
    for profile in profiles {
        let column_count = p.read_len("distinct sketch column count")?;
        if column_count != profile.columns.len() {
            return Err(StoreError::corrupt(format!(
                "distinct sketch block covers {column_count} columns of table `{}`, \
                 its profile covers {}",
                profile.table,
                profile.columns.len()
            )));
        }
        let mut table = Vec::with_capacity(column_count);
        for _ in 0..column_count {
            match p.read_u8("distinct sketch presence flag")? {
                0 => table.push(None),
                1 => {
                    let capacity = p.read_len("distinct sketch capacity")?;
                    if capacity == 0 {
                        return Err(StoreError::corrupt("distinct sketch capacity of zero"));
                    }
                    let count = p.read_len("distinct sketch digest count")?;
                    if count > capacity {
                        return Err(StoreError::corrupt(format!(
                            "distinct sketch holds {count} digests over capacity {capacity}"
                        )));
                    }
                    let mut digests = std::collections::BTreeSet::new();
                    let mut previous: Option<u64> = None;
                    for _ in 0..count {
                        let digest = p.read_u64("distinct sketch digest")?;
                        if previous.is_some_and(|prev| digest <= prev) {
                            return Err(StoreError::corrupt(
                                "distinct sketch digests are not strictly increasing",
                            ));
                        }
                        previous = Some(digest);
                        digests.insert(digest);
                    }
                    table.push(Some(DistinctSketch::from_parts(capacity, digests)));
                }
                other => {
                    return Err(StoreError::corrupt(format!(
                        "invalid distinct sketch presence flag {other}"
                    )))
                }
            }
        }
        distincts.push(table);
    }
    Ok(distincts)
}

fn write_index<W: Write>(w: &mut Writer<W>, index: &JoinabilityIndex) -> Result<()> {
    let (postings, sizes) = index.canonical_parts();
    let mut section = SectionBuilder::new();
    {
        let p = section.writer();
        p.write_len(sizes.len())?;
        for (id, size) in sizes {
            p.write_len(id)?;
            p.write_len(size)?;
        }
        p.write_len(postings.len())?;
        for (digest, ids) in postings {
            p.write_u64(digest)?;
            p.write_len(ids.len())?;
            for id in ids {
                p.write_len(id)?;
            }
        }
    }
    section.finish(SECTION_INDEX, w)
}

/// Encodes a candidate's identity + sketch (the shared body of CANDIDATE and
/// CANDIDATE_UPDATE payloads).
fn encode_candidate(p: &mut Writer<Vec<u8>>, candidate: &CandidateColumn) -> Result<()> {
    p.write_len(candidate.table_index)?;
    p.write_str(&candidate.table_name)?;
    p.write_str(&candidate.key_column)?;
    p.write_str(&candidate.feature_column)?;
    p.write_u8(aggregation_tag(candidate.aggregation))?;
    candidate.sketch.write_embedded(p)
}

fn write_candidate<W: Write>(w: &mut Writer<W>, candidate: &CandidateColumn) -> Result<()> {
    let mut section = SectionBuilder::new();
    encode_candidate(section.writer(), candidate)?;
    section.finish(SECTION_CANDIDATE, w)
}

/// Writes one CANDIDATE_STATE section: a presence flag plus the serialized
/// builder. A missing builder (a candidate loaded from a sealed file) writes
/// the flag alone, keeping the section structure uniform.
fn write_candidate_state<W: Write>(
    w: &mut Writer<W>,
    builder: Option<&RightSketchBuilder>,
) -> Result<()> {
    let mut section = SectionBuilder::new();
    {
        let p = section.writer();
        match builder {
            None => p.write_u8(0)?,
            Some(builder) => {
                p.write_u8(1)?;
                builder.write_state(p)?;
            }
        }
    }
    section.finish(SECTION_CANDIDATE_STATE, w)
}

fn write_index_delta<W: Write>(w: &mut Writer<W>, deltas: &[IndexDelta]) -> Result<()> {
    let mut section = SectionBuilder::new();
    {
        let p = section.writer();
        p.write_len(deltas.len())?;
        for delta in deltas {
            p.write_len(delta.removed.len())?;
            for &(digest, id) in &delta.removed {
                p.write_u64(digest)?;
                p.write_len(id)?;
            }
            p.write_len(delta.added.len())?;
            for &(digest, id) in &delta.added {
                p.write_u64(digest)?;
                p.write_len(id)?;
            }
            p.write_len(delta.sizes.len())?;
            for &(id, size) in &delta.sizes {
                p.write_len(id)?;
                p.write_len(size)?;
            }
        }
    }
    section.finish(SECTION_INDEX_DELTA, w)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct RepoMeta {
    config: RepositoryConfig,
    num_tables: usize,
    num_candidates: usize,
    sealed: bool,
}

/// Reads a repository file header. Only the current layout is readable: a v1
/// or v2 file predates the builder state, distinct sketches and sealed flag,
/// so it is rejected with a typed error asking for a re-ingest.
fn read_repo_header<R: Read>(r: &mut Reader<R>) -> Result<()> {
    let version = read_header(r, ArtifactKind::Repository)?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    Ok(())
}

fn read_repo_meta(payload: &[u8]) -> Result<RepoMeta> {
    let mut m = Reader::new(payload);
    let sketch_kind = joinmi_sketch::persist::sketch_kind_from_tag(m.read_u8("repo sketch kind")?)?;
    let size = m.read_len("repo sketch size")?;
    let seed = m.read_u64("repo sketch seed")?;
    let max_pairs_per_table = m.read_len("repo max pairs per table")?;
    let num_tables = m.read_len("repo table count")?;
    let num_candidates = m.read_len("repo candidate count")?;
    let distinct_sketch_size = m.read_len("repo distinct sketch size")?;
    let flags = m.read_u8("repo flags")?;
    if flags & !META_FLAG_SEALED != 0 {
        return Err(StoreError::corrupt(format!(
            "unknown repository flag bits {flags:#04x}"
        )));
    }
    let sealed = flags & META_FLAG_SEALED != 0;
    if !m.into_inner().is_empty() {
        return Err(StoreError::corrupt("trailing bytes in REPO_META section"));
    }
    Ok(RepoMeta {
        config: RepositoryConfig {
            sketch_kind,
            sketch: SketchConfig::new(size, seed),
            max_pairs_per_table,
            distinct_sketch_size,
        },
        num_tables,
        num_candidates,
        sealed,
    })
}

fn read_profiles(payload: &[u8], expected_tables: usize) -> Result<Vec<TableProfile>> {
    let mut p = Reader::new(payload);
    let profiles = decode_profiles(&mut p, expected_tables, payload.len())?;
    if !p.into_inner().is_empty() {
        return Err(StoreError::corrupt("trailing bytes in PROFILES section"));
    }
    Ok(profiles)
}

fn decode_profiles<R: Read>(
    p: &mut Reader<R>,
    expected_tables: usize,
    payload_len: usize,
) -> Result<Vec<TableProfile>> {
    let count = p.read_len("profile count")?;
    if count != expected_tables {
        return Err(StoreError::corrupt(format!(
            "profile count {count} does not match table count {expected_tables}"
        )));
    }
    let mut profiles = Vec::with_capacity(count.min(payload_len));
    for _ in 0..count {
        let table = p.read_string("profile table name")?;
        let rows = p.read_len("profile row count")?;
        let num_columns = p.read_len("profile column count")?;
        let mut columns = Vec::with_capacity(num_columns.min(payload_len));
        for _ in 0..num_columns {
            columns.push(ColumnProfile {
                name: p.read_string("column profile name")?,
                dtype: dtype_from_tag(p.read_u8("column profile dtype")?)?,
                distinct: p.read_len("column profile distinct")?,
                nulls: p.read_len("column profile nulls")?,
                rows: p.read_len("column profile rows")?,
            });
        }
        profiles.push(TableProfile {
            table,
            rows,
            columns,
        });
    }
    Ok(profiles)
}

fn read_index(payload: &[u8], num_candidates: usize) -> Result<JoinabilityIndex> {
    let mut p = Reader::new(payload);
    let size_count = p.read_len("index size count")?;
    let mut sizes = Vec::with_capacity(size_count.min(payload.len()));
    let mut covered = vec![false; num_candidates];
    for _ in 0..size_count {
        let id = p.read_len("index candidate id")?;
        if id >= num_candidates {
            return Err(StoreError::corrupt(format!(
                "index references candidate {id}, but the file holds {num_candidates}"
            )));
        }
        covered[id] = true;
        sizes.push((id, p.read_len("index candidate digest count")?));
    }
    let digest_count = p.read_len("index digest count")?;
    let mut postings = Vec::with_capacity(digest_count.min(payload.len()));
    for _ in 0..digest_count {
        let digest = p.read_u64("index digest")?;
        let id_count = p.read_len("index posting length")?;
        let mut ids = Vec::with_capacity(id_count.min(payload.len()));
        for _ in 0..id_count {
            let id = p.read_len("index posting id")?;
            // Posting ids must also appear in the sizes list: queries size
            // their per-candidate overlap counters from the sizes, so an
            // uncovered posting id would index out of bounds.
            if id >= num_candidates || !covered[id] {
                return Err(StoreError::corrupt(format!(
                    "index posting references candidate {id} with no digest-count entry"
                )));
            }
            ids.push(id);
        }
        postings.push((digest, ids));
    }
    if !p.into_inner().is_empty() {
        return Err(StoreError::corrupt("trailing bytes in INDEX section"));
    }
    Ok(JoinabilityIndex::from_canonical_parts(postings, sizes))
}

/// Decodes a candidate body (identity + sketch) from a payload slice,
/// requiring full consumption.
fn read_candidate_body(payload: &[u8]) -> Result<CandidateColumn> {
    let mut p = Reader::new(payload);
    let table_index = p.read_len("candidate table index")?;
    let table_name = p.read_string("candidate table name")?;
    let key_column = p.read_string("candidate key column")?;
    let feature_column = p.read_string("candidate feature column")?;
    let aggregation = aggregation_from_tag(p.read_u8("candidate aggregation")?)?;
    let sketch = ColumnSketch::read_embedded(&mut p)?;
    if !p.into_inner().is_empty() {
        return Err(StoreError::corrupt("trailing bytes in CANDIDATE section"));
    }
    Ok(CandidateColumn {
        table_index,
        table_name,
        key_column,
        feature_column,
        aggregation,
        sketch,
    })
}

/// Structurally validates one candidate body without materializing it
/// (borrowed reads only): identity fields, enum tags, the embedded sketch
/// ([`joinmi_sketch::persist::validate_embedded_sketch`]), and full payload
/// consumption. Run for every candidate at snapshot open, this is what makes
/// the lazy decode in [`RepositorySnapshot::candidate`] infallible — a
/// checksum only proves integrity, not that the payload *decodes*.
fn validate_candidate_body(payload: &[u8], num_tables: usize) -> Result<()> {
    let mut p = joinmi_store::SliceReader::new(payload);
    let table_index = p.read_len("candidate table index")?;
    if table_index >= num_tables {
        return Err(StoreError::corrupt(format!(
            "candidate references table {table_index}, but the file holds {num_tables}"
        )));
    }
    p.read_str("candidate table name")?;
    p.read_str("candidate key column")?;
    p.read_str("candidate feature column")?;
    aggregation_from_tag(p.read_u8("candidate aggregation")?)?;
    let consumed = joinmi_sketch::persist::validate_embedded_sketch(&payload[p.position()..])?;
    if p.position() + consumed != payload.len() {
        return Err(StoreError::corrupt("trailing bytes in CANDIDATE section"));
    }
    Ok(())
}

/// Structurally validates a CANDIDATE_STATE payload; returns `true` when a
/// builder state is present.
fn validate_state_payload(payload: &[u8]) -> Result<bool> {
    match payload.first() {
        None => Err(StoreError::Truncated {
            context: "candidate state flag",
        }),
        Some(0) => {
            if payload.len() != 1 {
                return Err(StoreError::corrupt(
                    "trailing bytes in empty CANDIDATE_STATE section",
                ));
            }
            Ok(false)
        }
        Some(1) => {
            let consumed = incremental::validate_builder_state(&payload[1..])?;
            if 1 + consumed != payload.len() {
                return Err(StoreError::corrupt(
                    "trailing bytes in CANDIDATE_STATE section",
                ));
            }
            Ok(true)
        }
        Some(other) => Err(StoreError::corrupt(format!(
            "invalid candidate state flag {other}"
        ))),
    }
}

fn read_index_delta(payload: &[u8], num_candidates: usize) -> Result<Vec<IndexDelta>> {
    let mut p = Reader::new(payload);
    let delta_count = p.read_len("index delta count")?;
    let mut deltas = Vec::with_capacity(delta_count.min(payload.len()));
    for _ in 0..delta_count {
        let mut delta = IndexDelta::default();
        let removed = p.read_len("index delta removed count")?;
        for _ in 0..removed {
            let digest = p.read_u64("index delta removed digest")?;
            let id = p.read_len("index delta removed id")?;
            check_candidate_id(id, num_candidates)?;
            delta.removed.push((digest, id));
        }
        let added = p.read_len("index delta added count")?;
        for _ in 0..added {
            let digest = p.read_u64("index delta added digest")?;
            let id = p.read_len("index delta added id")?;
            check_candidate_id(id, num_candidates)?;
            delta.added.push((digest, id));
        }
        let sizes = p.read_len("index delta size count")?;
        for _ in 0..sizes {
            let id = p.read_len("index delta size id")?;
            check_candidate_id(id, num_candidates)?;
            delta.sizes.push((id, p.read_len("index delta size")?));
        }
        deltas.push(delta);
    }
    if !p.into_inner().is_empty() {
        return Err(StoreError::corrupt("trailing bytes in INDEX_DELTA section"));
    }
    Ok(deltas)
}

fn check_candidate_id(id: usize, num_candidates: usize) -> Result<()> {
    if id >= num_candidates {
        return Err(StoreError::corrupt(format!(
            "append group references candidate {id}, but the file holds {num_candidates}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

impl TableRepository {
    /// Serializes the repository (config, profiles, distinct sketches, index
    /// postings, candidate sketches and builder states — not the raw tables)
    /// to any `std::io::Write`, as a flat (append-group-free) v3 artifact
    /// covering the repository's *current* state. A sealed repository writes
    /// the lean sealed layout: no `CANDIDATE_STATE` sections at all.
    pub fn save_to<W: Write>(&self, out: W) -> Result<()> {
        let mut w = Writer::new(out);
        write_header(&mut w, ArtifactKind::Repository)?;
        write_repo_meta(
            &mut w,
            &self.config(),
            self.num_tables(),
            self.candidates().len(),
            self.is_sealed(),
        )?;
        write_profiles(&mut w, self.profiles())?;
        write_distincts(&mut w, self.distinct_sketches())?;
        write_index(&mut w, self.joinability())?;
        for (candidate, builder) in self.candidates().iter().zip(self.builders()) {
            write_candidate(&mut w, candidate)?;
            if !self.is_sealed() {
                write_candidate_state(&mut w, builder.as_ref())?;
            }
        }
        Ok(())
    }

    /// Saves the repository to a file (see [`Self::save_to`]), flushed and
    /// fsynced before returning. The encoding is canonical: saving a loaded
    /// repository reproduces the bytes. All filesystem operations route
    /// through the [`joinmi_store::fault`] seam, so chaos sweeps can fail or
    /// corrupt any individual write.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let file = joinmi_store::fault::create(path)?;
        let mut buffered = std::io::BufWriter::new(file);
        self.save_to(&mut buffered)?;
        use std::io::Write as _;
        buffered.flush()?;
        let file = buffered
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        file.sync_all()?;
        Ok(())
    }

    /// Appends the changes made since the repository was loaded or last
    /// appended — the [`Self::append_rows`] log — to an existing repository
    /// file as one append group, without rewriting any existing bytes.
    ///
    /// The target must be the v3 artifact this repository's base state came
    /// from (header and REPO_META are verified; appending to a mismatched,
    /// pre-v3, or sealed file is rejected before any byte is written — with
    /// [`StoreError::UnsupportedVersion`] for a pre-v3 file and
    /// [`StoreError::Sealed`] for a sealed one). A no-op when nothing
    /// changed. On success the pending log is cleared, so consecutive
    /// appends produce consecutive groups.
    ///
    /// Crash semantics: the group is flushed **and fsynced** before the
    /// pending log is cleared, so a successful return means the group is
    /// durable. A write torn mid-group leaves the base artifact and
    /// all previously completed groups byte-identical on disk, and the next
    /// open reports a typed error for the torn tail rather than silently
    /// dropping it — open cannot distinguish "crash mid-append" from
    /// "bit rot in the last group", so it refuses to guess; the explicit
    /// repair step is [`Self::recover_truncated`], which drops the torn tail
    /// at a durable boundary after verifying the surviving prefix opens.
    pub fn append_to<P: AsRef<Path>>(&mut self, path: P) -> Result<()> {
        if self.pending().is_empty() {
            return Ok(());
        }

        // Light compatibility check against the target's header + meta.
        {
            let file = joinmi_store::fault::open_read(&path)?;
            let mut r = Reader::new(std::io::BufReader::new(file));
            read_repo_header(&mut r)?;
            let meta_payload = joinmi_store::read_section(&mut r, SECTION_REPO_META)?;
            let meta = read_repo_meta(&meta_payload)?;
            if meta.sealed {
                return Err(StoreError::Sealed {
                    operation: "appending a group to a sealed repository file",
                });
            }
            let config = self.config();
            if meta.num_tables != self.num_tables()
                || meta.num_candidates != self.candidates().len()
                || meta.config.sketch != config.sketch
                || meta.config.sketch_kind != config.sketch_kind
            {
                return Err(StoreError::corrupt(
                    "append target does not match this repository (table/candidate counts or \
                     sketch configuration differ)",
                ));
            }
        }

        let file = joinmi_store::fault::open_append(&path)?;
        let mut w = Writer::new(std::io::BufWriter::new(file));

        let dirty: Vec<usize> = self.pending().dirty.iter().copied().collect();
        let mut meta = SectionBuilder::new();
        {
            let p = meta.writer();
            p.write_len(dirty.len())?;
            encode_profiles(p, self.profiles())?;
            encode_distincts(p, self.distinct_sketches())?;
        }
        meta.finish(SECTION_APPEND_META, &mut w)?;

        for &id in &dirty {
            let mut update = SectionBuilder::new();
            {
                let p = update.writer();
                p.write_len(id)?;
                encode_candidate(p, &self.candidates()[id])?;
            }
            update.finish(SECTION_CANDIDATE_UPDATE, &mut w)?;
            write_candidate_state(&mut w, self.builders()[id].as_ref())?;
        }
        write_index_delta(&mut w, &self.pending().deltas)?;

        let mut buffered = w.into_inner();
        use std::io::Write as _;
        buffered.flush()?;
        // Fsync before declaring the group durable: the closing INDEX_DELTA
        // section is the commit point only once it is actually on disk.
        let file = buffered
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        file.sync_all()?;
        self.clear_pending();
        Ok(())
    }

    /// Loads a repository artifact eagerly from a reader (see [`Self::load`]).
    pub fn load_from<R: Read>(mut input: R) -> Result<TableRepository> {
        let mut buf = Vec::new();
        input.read_to_end(&mut buf).map_err(StoreError::from)?;
        Ok(RepositorySnapshot::from_bytes(buf)?.into_repository())
    }

    /// Loads a repository saved by [`Self::save`], decoding every candidate
    /// eagerly. The result is a *sketch-only* repository: it answers queries
    /// bit-identically to the original and — unless the file is sealed —
    /// accepts [`Self::append_rows`], but holds no raw tables, so new-table ingest
    /// and [`AugmentationPlan::materialize`](crate::AugmentationPlan) are
    /// rejected with typed errors.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<TableRepository> {
        Ok(Self::load_mmap_like(path)?.into_repository())
    }

    /// Opens a repository artifact as a read-only [`RepositorySnapshot`]:
    /// the file is read into a single buffer (one syscall — the closest to
    /// `mmap` the no-unsafe policy allows), every section checksum is
    /// verified immediately, and candidate sketches are decoded lazily on
    /// first access.
    pub fn load_mmap_like<P: AsRef<Path>>(path: P) -> Result<RepositorySnapshot> {
        RepositorySnapshot::from_bytes(joinmi_store::fault::read(path)?)
    }

    /// Repairs a repository file whose last append group was torn by a crash
    /// mid-[`Self::append_to`], truncating the file in place to the last
    /// durable boundary (end of the base payload or end of the last complete
    /// group) and returning a [`RecoveryReport`] of exactly what was dropped.
    ///
    /// This is the explicit counterpart to the deliberately strict open path:
    /// [`Self::load_mmap_like`] refuses a torn file with a typed error
    /// because it cannot tell a crash from bit rot; an operator (or a serving
    /// daemon bringing a shard online) calls this to resolve the ambiguity
    /// in favour of "crash" and shed the tail.
    ///
    /// Safety properties beyond the structural scan in
    /// [`joinmi_store::recover_truncated`]:
    ///
    /// * the recovered prefix is fully **opened as a repository snapshot**
    ///   before the file is touched — the boundary the truncation commits to
    ///   always decodes, never just "looks structurally plausible";
    /// * the structural scan is not trusted to declare *health* either: the
    ///   section payload checksum does not cover the frame (tag + length), so
    ///   a bit flipped in a section **tag** leaves a file the scan walks
    ///   cleanly but the strict open refuses. When that happens the repair
    ///   falls back to a semantic search — every section end is a candidate
    ///   boundary (framing survives tag damage), and only real durable
    ///   boundaries (end of base, end of a complete group) actually open —
    ///   and truncates to the longest prefix that opens;
    /// * damage in the base payload (before any append group) is never
    ///   repairable and returns a typed error — repair can only shed
    ///   appended history, never base data.
    ///
    /// Idempotent: repairing an already-valid file is a no-op reporting zero
    /// dropped bytes.
    pub fn recover_truncated<P: AsRef<Path>>(path: P) -> Result<RecoveryReport> {
        let buf = joinmi_store::fault::read(&path)?;
        let report = joinmi_store::scan_recoverable(
            &buf,
            ArtifactKind::Repository,
            REPOSITORY_GROUP_GRAMMAR,
        )?;
        let truncate_to = |len: u64| -> Result<()> {
            let file = joinmi_store::fault::open_rw(&path)?;
            file.set_len(len)?;
            file.sync_all()?;
            Ok(())
        };

        // Verify-before-trust: whatever boundary the structural scan chose
        // must decode as a repository before the file is shrunk to it — and
        // a "healthy" verdict must decode too, or it is not healthy.
        let prefix_len =
            usize::try_from(report.recovered_len).expect("recovered_len came from a usize");
        if RepositorySnapshot::from_bytes(buf[..prefix_len].to_vec()).is_ok() {
            if report.is_torn() {
                truncate_to(report.recovered_len)?;
            }
            return Ok(report);
        }

        // Semantic fallback: the structural boundary does not open (e.g. a
        // checksum-valid flip in a section tag). Collect every section-end
        // offset — framing (length + payload checksum) survives tag damage —
        // and truncate to the longest prefix that opens. Prefixes ending
        // mid-group refuse to open by construction, so only durable
        // boundaries can win.
        let mut section_ends = Vec::new();
        let mut pos = 8usize;
        while pos < buf.len() && joinmi_store::scan_section_any(&buf, &mut pos).is_ok() {
            section_ends.push(pos);
        }
        for &end in section_ends.iter().rev() {
            if end as u64 == report.recovered_len
                || RepositorySnapshot::from_bytes(buf[..end].to_vec()).is_err()
            {
                continue;
            }
            truncate_to(end as u64)?;
            // Rescan the surviving prefix so the report's group count is
            // exact; the prefix opens, so the clean scan cannot fail.
            let prefix = joinmi_store::scan_recoverable(
                &buf[..end],
                ArtifactKind::Repository,
                REPOSITORY_GROUP_GRAMMAR,
            )?;
            return Ok(RecoveryReport {
                file_len: buf.len() as u64,
                recovered_len: end as u64,
                complete_groups: prefix.complete_groups,
                dropped_bytes: buf.len() as u64 - end as u64,
                dropped_sections: section_ends.iter().filter(|&&e| e > end).count(),
                torn_error: Some(
                    "section stream is structurally clean but does not decode \
                     (frame damage, e.g. a flipped section tag); recovered to the \
                     longest prefix that opens"
                        .to_owned(),
                ),
            });
        }
        Err(StoreError::corrupt(
            "no prefix of the file opens as a repository; the damage precedes the last \
             durable boundary",
        ))
    }

    /// Rewrites a repository file in place, folding all accumulated append
    /// groups back into a fresh flat v3 base — the read-time cost of replayed
    /// groups goes to zero while queries stay bit-for-bit identical. With
    /// [`CompactMode::Seal`] the rewrite additionally drops every candidate's
    /// incremental-builder state and marks the file sealed: the lean
    /// pre-append read profile, at the price that further appends are
    /// rejected with typed `Sealed` errors. Compacting an already-sealed or
    /// already-flat file is a valid no-op-shaped rewrite (it reproduces the
    /// canonical bytes).
    ///
    /// Crash semantics: the new image is written to a sibling temp file,
    /// fsynced, **read back and verified to open**, then atomically renamed
    /// over the original — at every instant the path holds either the
    /// complete old file or the complete new one, so a crash mid-compaction
    /// never needs repair, and a write corrupted in flight (a flipped bit on
    /// the way to the temp file) is caught before the rename and leaves the
    /// original serving. Do not run concurrently with [`Self::append_to`] on
    /// the same path: the rename would discard a group appended after the
    /// compaction read its input.
    pub fn compact<P: AsRef<Path>>(path: P, mode: CompactMode) -> Result<CompactionReport> {
        let path = path.as_ref();
        let buf = joinmi_store::fault::read(path)?;
        let bytes_before = buf.len() as u64;
        let snapshot = RepositorySnapshot::from_bytes(buf)?;
        let groups_folded = snapshot.append_groups();
        let mut repo = snapshot.into_repository();
        if matches!(mode, CompactMode::Seal) {
            repo.seal();
        }

        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".compact-tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let write_result = (|| -> Result<u64> {
            let file = joinmi_store::fault::create(&tmp)?;
            let mut buffered = std::io::BufWriter::new(file);
            repo.save_to(&mut buffered)?;
            use std::io::Write as _;
            buffered.flush()?;
            let file = buffered
                .into_inner()
                .map_err(|e| StoreError::Io(e.into_error()))?;
            file.sync_all()?;
            // Verify-before-rename: re-read the temp image and require it to
            // open as a repository. Corruption introduced between the
            // in-memory encoding and the platters never replaces a healthy
            // live file.
            let written = joinmi_store::fault::read(&tmp)?;
            RepositorySnapshot::from_bytes(written)?;
            Ok(file.metadata()?.len())
        })();
        let bytes_after = match write_result {
            Ok(len) => len,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };
        if let Err(e) = joinmi_store::fault::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::Io(e));
        }
        Ok(CompactionReport {
            groups_folded,
            bytes_before,
            bytes_after,
            sealed: repo.is_sealed(),
        })
    }
}

/// How [`TableRepository::compact`] rewrites the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactMode {
    /// Fold append groups into a fresh base but keep every candidate's
    /// builder state: the file stays appendable.
    Preserve,
    /// Fold append groups *and* drop all builder state, marking the file
    /// sealed: the leanest read profile, no further appends.
    Seal,
}

/// What a [`TableRepository::compact`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Append groups folded into the new base.
    pub groups_folded: usize,
    /// File size before the rewrite, in bytes.
    pub bytes_before: u64,
    /// File size after the rewrite, in bytes.
    pub bytes_after: u64,
    /// `true` when the rewritten file is sealed.
    pub sealed: bool,
}

/// A candidate section that decodes its [`CandidateColumn`] on first access.
#[derive(Debug)]
struct LazyCandidate {
    /// Payload byte range inside [`RepositorySnapshot::buf`] (checksum
    /// already verified at open). For a candidate refreshed by an append
    /// group this points at the latest CANDIDATE_UPDATE body.
    payload: Range<usize>,
    /// Byte range of the serialized builder state, when present.
    state: Option<Range<usize>>,
    cell: OnceLock<CandidateColumn>,
}

/// A read-only repository view over a single in-memory copy of the file.
///
/// Produced by [`TableRepository::load_mmap_like`]. All section checksums are
/// verified at open — including every append group's; truncation, bit rot,
/// torn appends, wrong magic, and future versions all surface as typed
/// [`StoreError`]s, never panics. After open, candidate sketches are decoded
/// lazily: a query that prunes to `k` candidates through the persisted
/// joinability index decodes exactly those `k` sketches and leaves the rest
/// (and every builder state) as raw bytes.
#[derive(Debug)]
pub struct RepositorySnapshot {
    buf: Vec<u8>,
    config: RepositoryConfig,
    num_tables: usize,
    profiles: Vec<TableProfile>,
    distincts: Vec<Vec<Option<DistinctSketch>>>,
    index: JoinabilityIndex,
    candidates: Vec<LazyCandidate>,
    /// Number of append groups the artifact carried.
    append_groups: usize,
    /// Byte length of the base image (everything before the first append
    /// group); `buf.len() - base_len` is the appended-history weight.
    base_len: usize,
    /// `true` when the artifact is sealed (v3 flag).
    sealed: bool,
}

impl RepositorySnapshot {
    /// Parses a repository artifact held in memory, verifying the header and
    /// every section checksum up front and applying any append groups.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self> {
        // Header (8 bytes) via the streaming reader, then section scanning.
        let mut header = Reader::new(buf.as_slice());
        read_repo_header(&mut header)?;
        let mut pos = 8usize;

        let meta_range = scan_section(&buf, &mut pos, SECTION_REPO_META)?;
        let meta = read_repo_meta(&buf[meta_range])?;
        let profiles_range = scan_section(&buf, &mut pos, SECTION_PROFILES)?;
        let mut profiles = read_profiles(&buf[profiles_range], meta.num_tables)?;
        let distincts_range = scan_section(&buf, &mut pos, SECTION_FEATURE_DISTINCT)?;
        let mut distincts = {
            let mut p = Reader::new(&buf[distincts_range]);
            let decoded = decode_distincts(&mut p, &profiles)?;
            if !p.into_inner().is_empty() {
                return Err(StoreError::corrupt(
                    "trailing bytes in FEATURE_DISTINCT section",
                ));
            }
            decoded
        };
        let index_range = scan_section(&buf, &mut pos, SECTION_INDEX)?;
        let mut index = read_index(&buf[index_range], meta.num_candidates)?;

        let mut candidates = Vec::with_capacity(meta.num_candidates.min(buf.len()));
        for _ in 0..meta.num_candidates {
            let payload = scan_section(&buf, &mut pos, SECTION_CANDIDATE)?;
            // Structural validation (borrowed reads, no allocation): after
            // this, the lazy decode below cannot fail — a checksum-valid but
            // malformed payload is rejected here with a typed error instead
            // of panicking at first access.
            validate_candidate_body(&buf[payload.clone()], meta.num_tables)?;
            // Sealed files carry no builder state at all (that is the point
            // of sealing); appendable files carry one per candidate.
            let state = if !meta.sealed {
                let state_payload = scan_section(&buf, &mut pos, SECTION_CANDIDATE_STATE)?;
                validate_state_payload(&buf[state_payload.clone()])?
                    .then(|| state_payload.start + 1..state_payload.end)
            } else {
                None
            };
            candidates.push(LazyCandidate {
                payload,
                state,
                cell: OnceLock::new(),
            });
        }
        let base_len = pos;
        if meta.sealed && pos < buf.len() {
            return Err(StoreError::corrupt(
                "sealed repository file carries trailing bytes (append groups are not \
                 allowed after a seal)",
            ));
        }

        // Append groups: replace updated candidates' payload ranges, replay
        // index deltas, adopt refreshed profiles + distinct sketches.
        let mut append_groups = 0usize;
        while pos < buf.len() {
            let meta_payload = scan_section(&buf, &mut pos, SECTION_APPEND_META)?;
            let (updated_count, new_profiles, new_distincts) = {
                let mut p = Reader::new(&buf[meta_payload.clone()]);
                let updated = p.read_len("append group update count")?;
                let profiles = decode_profiles(&mut p, meta.num_tables, meta_payload.len())?;
                let distincts = decode_distincts(&mut p, &profiles)?;
                if !p.into_inner().is_empty() {
                    return Err(StoreError::corrupt("trailing bytes in APPEND_META section"));
                }
                (updated, profiles, distincts)
            };
            for _ in 0..updated_count {
                let update_payload = scan_section(&buf, &mut pos, SECTION_CANDIDATE_UPDATE)?;
                let mut p = joinmi_store::SliceReader::new(&buf[update_payload.clone()]);
                let id = p.read_len("updated candidate id")?;
                check_candidate_id(id, meta.num_candidates)?;
                let body = update_payload.start + p.position()..update_payload.end;
                validate_candidate_body(&buf[body.clone()], meta.num_tables)?;
                let state_payload = scan_section(&buf, &mut pos, SECTION_CANDIDATE_STATE)?;
                let state = validate_state_payload(&buf[state_payload.clone()])?
                    .then(|| state_payload.start + 1..state_payload.end);
                candidates[id] = LazyCandidate {
                    payload: body,
                    state,
                    cell: OnceLock::new(),
                };
            }
            let delta_payload = scan_section(&buf, &mut pos, SECTION_INDEX_DELTA)?;
            for delta in read_index_delta(&buf[delta_payload], meta.num_candidates)? {
                index.apply_delta(&delta);
            }
            profiles = new_profiles;
            distincts = new_distincts;
            append_groups += 1;
        }
        if pos != buf.len() {
            return Err(StoreError::corrupt(format!(
                "{} trailing bytes after the last section",
                buf.len() - pos
            )));
        }

        Ok(Self {
            buf,
            config: meta.config,
            num_tables: meta.num_tables,
            profiles,
            distincts,
            index,
            candidates,
            append_groups,
            base_len,
            sealed: meta.sealed,
        })
    }

    /// The repository configuration recorded at ingest time.
    #[must_use]
    pub fn config(&self) -> RepositoryConfig {
        self.config
    }

    /// Number of tables the repository was built from.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// Profiles of the ingested tables (refreshed by append groups).
    #[must_use]
    pub fn profiles(&self) -> &[TableProfile] {
        &self.profiles
    }

    /// Number of append groups the artifact carried (0 for a flat save).
    #[must_use]
    pub fn append_groups(&self) -> usize {
        self.append_groups
    }

    /// Bytes of appended history after the base image (0 for a flat save) —
    /// the weight [`TableRepository::compact`] would fold away.
    #[must_use]
    pub fn appended_bytes(&self) -> usize {
        self.buf.len() - self.base_len
    }

    /// `true` when the artifact is sealed: no builder state on disk, and
    /// further on-disk appends are rejected with [`StoreError::Sealed`].
    #[must_use]
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// Number of candidate sketches already decoded (observability for the
    /// lazy path; a fresh snapshot reports 0).
    #[must_use]
    pub fn decoded_candidates(&self) -> usize {
        self.candidates
            .iter()
            .filter(|c| c.cell.get().is_some())
            .count()
    }

    /// Decodes every candidate (and its builder state, when present) and
    /// assembles a sketch-only [`TableRepository`].
    #[must_use]
    pub fn into_repository(self) -> TableRepository {
        let candidates: Vec<CandidateColumn> = self
            .candidates
            .iter()
            .map(|lazy| match lazy.cell.get() {
                Some(done) => done.clone(),
                None => Self::decode_candidate(&self.buf, &lazy.payload),
            })
            .collect();
        let builders: Vec<Option<RightSketchBuilder>> = self
            .candidates
            .iter()
            .map(|lazy| {
                lazy.state.as_ref().map(|range| {
                    // Validated structurally at open (the walker mirrors the
                    // decoder), so this cannot fail on input data.
                    RightSketchBuilder::read_state(&mut Reader::new(&self.buf[range.clone()]))
                        .expect("validated builder state failed to decode")
                })
            })
            .collect();
        TableRepository::from_loaded_parts(
            self.config,
            self.profiles,
            candidates,
            self.index,
            builders,
            self.distincts,
            self.sealed,
        )
    }

    fn decode_candidate(buf: &[u8], payload: &Range<usize>) -> CandidateColumn {
        // Every candidate payload passed `validate_candidate_body` (the
        // structural walker covering exactly the fields read here) when the
        // snapshot was opened, so this decode is infallible by construction;
        // a failure would be a walker/decoder mismatch, i.e. a bug, not
        // input-dependent behaviour.
        read_candidate_body(&buf[payload.clone()])
            .expect("validated candidate section failed to decode")
    }
}

impl CandidateSource for RepositorySnapshot {
    fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    fn candidate(&self, index: usize) -> &CandidateColumn {
        let lazy = &self.candidates[index];
        lazy.cell
            .get_or_init(|| Self::decode_candidate(&self.buf, &lazy.payload))
    }

    fn joinability(&self) -> &JoinabilityIndex {
        &self.index
    }

    fn key_distinct_bound(&self, index: usize) -> Option<usize> {
        // Resolving the bound decodes the candidate (key-column name), which
        // the scoring path was about to do anyway for any candidate it joins;
        // pruned candidates pay one decode but skip the join and estimate.
        crate::repository::key_distinct_bound_from(
            self.candidate(index),
            &self.profiles,
            &self.distincts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RelationshipQuery, RepositoryConfig};
    use joinmi_sketch::SketchKind;
    use joinmi_synth::TaxiScenario;

    fn sample_repo() -> (TableRepository, RelationshipQuery) {
        let scenario = TaxiScenario::generate(40, 15, 3);
        let config = RepositoryConfig {
            sketch: SketchConfig::new(256, 3),
            ..RepositoryConfig::default()
        };
        let mut repo = TableRepository::new(config);
        repo.add_table(scenario.weather.clone()).unwrap();
        repo.add_table(scenario.demographics.clone()).unwrap();
        repo.add_table(scenario.inspections.clone()).unwrap();
        let query = RelationshipQuery::new(scenario.taxi, "zipcode", "num_trips")
            .with_sketch(SketchKind::Tupsk, SketchConfig::new(256, 3))
            .with_min_join_size(10);
        (repo, query)
    }

    fn save_bytes(repo: &TableRepository) -> Vec<u8> {
        let mut buf = Vec::new();
        repo.save_to(&mut buf).unwrap();
        buf
    }

    fn fingerprint(results: &[crate::RankedCandidate]) -> Vec<(usize, u64, usize, usize)> {
        results
            .iter()
            .map(|r| {
                (
                    r.candidate_index,
                    r.mi.to_bits(),
                    r.sketch_join_size,
                    r.key_overlap,
                )
            })
            .collect()
    }

    #[test]
    fn save_load_round_trips_candidates_and_profiles() {
        let (repo, _) = sample_repo();
        let bytes = save_bytes(&repo);
        let loaded = TableRepository::load_from(bytes.as_slice()).unwrap();

        assert!(loaded.is_sketch_only());
        assert!(loaded.is_appendable());
        assert_eq!(loaded.num_tables(), repo.num_tables());
        assert_eq!(loaded.profiles(), repo.profiles());
        assert_eq!(loaded.candidates().len(), repo.candidates().len());
        for (a, b) in loaded.candidates().iter().zip(repo.candidates()) {
            assert_eq!(a.table_index, b.table_index);
            assert_eq!(a.label(), b.label());
            assert_eq!(a.aggregation, b.aggregation);
            assert_eq!(a.sketch, b.sketch);
        }
        let cfg = loaded.config();
        assert_eq!(cfg.sketch_kind, repo.config().sketch_kind);
        assert_eq!(cfg.sketch, repo.config().sketch);
        assert_eq!(cfg.max_pairs_per_table, repo.config().max_pairs_per_table);
    }

    #[test]
    fn encoding_is_canonical_across_save_load_save() {
        let (repo, _) = sample_repo();
        let first = save_bytes(&repo);
        let loaded = TableRepository::load_from(first.as_slice()).unwrap();
        let second = save_bytes(&loaded);
        assert_eq!(first, second);
    }

    #[test]
    fn loaded_repository_answers_queries_bit_identically() {
        let (repo, query) = sample_repo();
        let in_memory = query.execute(&repo).unwrap();
        assert!(!in_memory.is_empty());

        let bytes = save_bytes(&repo);
        let loaded = TableRepository::load_from(bytes.as_slice()).unwrap();
        let from_disk = query.execute(&loaded).unwrap();
        assert_eq!(fingerprint(&in_memory), fingerprint(&from_disk));

        let snapshot = RepositorySnapshot::from_bytes(bytes).unwrap();
        let from_snapshot = query.execute(&snapshot).unwrap();
        assert_eq!(fingerprint(&in_memory), fingerprint(&from_snapshot));
    }

    #[test]
    fn snapshot_decodes_only_pruned_candidates() {
        let (repo, query) = sample_repo();
        let hits = query.execute(&repo).unwrap();
        let snapshot = RepositorySnapshot::from_bytes(save_bytes(&repo)).unwrap();
        assert_eq!(snapshot.decoded_candidates(), 0);
        assert_eq!(snapshot.append_groups(), 0);
        let _ = query.execute(&snapshot).unwrap();
        let decoded = snapshot.decoded_candidates();
        // The weather table's date/hour-keyed candidates never overlap the
        // zipcode query, so laziness must leave some candidates undecoded.
        assert!(decoded >= hits.len());
        assert!(
            decoded < snapshot.candidate_count(),
            "expected some of the {} candidates to stay undecoded, decoded {decoded}",
            snapshot.candidate_count()
        );
    }

    #[test]
    fn sketch_only_repository_rejects_new_tables_and_materialize() {
        let (repo, query) = sample_repo();
        let mut loaded = TableRepository::load_from(save_bytes(&repo).as_slice()).unwrap();
        let ranking = query.execute(&loaded).unwrap();

        let err = loaded
            .add_table(repo.table(0).clone())
            .expect_err("sealed repo must reject new-table ingest");
        assert!(matches!(err, joinmi_table::TableError::Unsupported(_)));

        let plan = crate::AugmentationPlan::new("zipcode", "num_trips", ranking[0].clone());
        let err = plan
            .materialize(&query.train, &loaded)
            .expect_err("sketch-only repo cannot materialize");
        assert!(matches!(err, joinmi_table::TableError::Unsupported(_)));
    }

    #[test]
    fn corrupt_repository_files_give_typed_errors() {
        let (repo, _) = sample_repo();
        let bytes = save_bytes(&repo);

        // Truncations at every interesting boundary.
        for cut in [0, 3, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            match RepositorySnapshot::from_bytes(bytes[..cut].to_vec()) {
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::UnexpectedSection { .. }
                    | StoreError::Corrupt(_),
                ) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }

        // Wrong magic.
        let mut wrong_magic = bytes.clone();
        wrong_magic[..4].copy_from_slice(b"ELF\x7F");
        assert!(matches!(
            RepositorySnapshot::from_bytes(wrong_magic),
            Err(StoreError::BadMagic { .. })
        ));

        // Future version.
        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            RepositorySnapshot::from_bytes(future),
            Err(StoreError::UnsupportedVersion { .. })
        ));

        // Flipped payload bit -> checksum mismatch.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            RepositorySnapshot::from_bytes(flipped),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        // Trailing garbage after the last section.
        let mut trailing = bytes;
        trailing.extend_from_slice(b"junk");
        assert!(matches!(
            RepositorySnapshot::from_bytes(trailing),
            Err(StoreError::Corrupt(_)
                | StoreError::Truncated { .. }
                | StoreError::UnexpectedSection { .. })
        ));
    }

    #[test]
    fn checksum_valid_but_malformed_candidate_is_corrupt_not_a_panic() {
        // A checksum proves integrity, not decodability: craft a file whose
        // first CANDIDATE payload carries an invalid aggregation tag under a
        // correct checksum. Open must return a typed error, and the eager
        // load path (which shares the open) must never reach the panic in
        // decode_candidate.
        let (repo, _) = sample_repo();
        let mut bytes = save_bytes(&repo);

        let mut pos = 8usize;
        for tag in [
            SECTION_REPO_META,
            SECTION_PROFILES,
            SECTION_FEATURE_DISTINCT,
            SECTION_INDEX,
        ] {
            joinmi_store::scan_section(&bytes, &mut pos, tag).unwrap();
        }
        let payload = joinmi_store::scan_section(&bytes, &mut pos, SECTION_CANDIDATE).unwrap();

        // Locate the aggregation tag inside the payload: u64 index, 3 strings.
        let mut walker = joinmi_store::SliceReader::new(&bytes[payload.clone()]);
        walker.read_len("index").unwrap();
        for _ in 0..3 {
            walker.read_str("s").unwrap();
        }
        let agg_offset = payload.start + walker.position();
        bytes[agg_offset] = 99;
        let fixed = joinmi_store::checksum(&bytes[payload.clone()]);
        bytes[payload.start - 8..payload.start].copy_from_slice(&fixed.to_le_bytes());

        assert!(matches!(
            RepositorySnapshot::from_bytes(bytes.clone()),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(
            TableRepository::load_from(bytes.as_slice()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn index_postings_must_be_covered_by_digest_counts() {
        // A posting id with no digest-count entry would make queries size
        // their overlap counters too small; the loader must reject it.
        let inconsistent = JoinabilityIndex::from_canonical_parts(
            vec![(42u64, vec![5usize])],
            vec![(0usize, 1usize)],
        );
        let mut w = joinmi_store::Writer::new(Vec::new());
        super::write_index(&mut w, &inconsistent).unwrap();
        let bytes = w.into_inner();
        let mut pos = 0usize;
        let payload = joinmi_store::scan_section(&bytes, &mut pos, SECTION_INDEX).unwrap();
        assert!(matches!(
            super::read_index(&bytes[payload], 6),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let (repo, query) = sample_repo();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("joinmi-persist-test-{}.jmi", std::process::id()));

        repo.save(&path).unwrap();
        let loaded = TableRepository::load(&path).unwrap();
        let snapshot = TableRepository::load_mmap_like(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let a = query.execute(&repo).unwrap();
        let b = query.execute(&loaded).unwrap();
        let c = query.execute(&snapshot).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&c));
    }

    // -- append path ------------------------------------------------------

    /// Splits the demographics table of a fresh scenario into a prefix and a
    /// tail chunk.
    fn scenario_with_split(
        split: usize,
    ) -> (TableRepository, RelationshipQuery, joinmi_table::Table) {
        let scenario = TaxiScenario::generate(40, 15, 3);
        let config = RepositoryConfig {
            sketch: SketchConfig::new(256, 3),
            ..RepositoryConfig::default()
        };
        let demo = scenario.demographics.clone();
        let prefix = demo.slice_rows(0..split);
        let tail = demo.slice_rows(split..demo.num_rows());
        let mut repo = TableRepository::new(config);
        repo.add_table(scenario.weather.clone()).unwrap();
        repo.add_table(prefix).unwrap();
        repo.add_table(scenario.inspections.clone()).unwrap();
        let query = RelationshipQuery::new(scenario.taxi, "zipcode", "num_trips")
            .with_sketch(SketchKind::Tupsk, SketchConfig::new(256, 3))
            .with_min_join_size(10);
        (repo, query, tail)
    }

    #[test]
    fn file_append_group_round_trips_and_matches_flat_save() {
        let (repo, query, tail) = scenario_with_split(8);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("joinmi-append-test-{}.jmi", std::process::id()));
        repo.save(&path).unwrap();

        // Daemon flow: reload the persisted repository, append rows, extend
        // the file in place.
        let mut reloaded = TableRepository::load(&path).unwrap();
        let appended = reloaded.append_rows(&tail).unwrap();
        assert!(appended > 0);
        let before = std::fs::metadata(&path).unwrap().len();
        reloaded.append_to(&path).unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after > before, "append must grow the file");
        // Appending again with no pending changes is a no-op.
        reloaded.append_to(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), after);

        // The appended file opens with one append group and answers queries
        // bit-identically to the in-memory appended repository…
        let snapshot = TableRepository::load_mmap_like(&path).unwrap();
        assert_eq!(snapshot.append_groups(), 1);
        let from_disk = query.execute(&snapshot).unwrap();
        let in_memory = query.execute(&reloaded).unwrap();
        assert_eq!(fingerprint(&from_disk), fingerprint(&in_memory));

        // …and to an in-memory repository that appended without persisting.
        let (mut direct, _, tail2) = scenario_with_split(8);
        direct.append_rows(&tail2).unwrap();
        assert_eq!(
            fingerprint(&from_disk),
            fingerprint(&query.execute(&direct).unwrap())
        );

        // A flat save of the appended repository loads identically too.
        let flat_path = dir.join(format!("joinmi-append-flat-{}.jmi", std::process::id()));
        reloaded.save(&flat_path).unwrap();
        let flat = TableRepository::load(&flat_path).unwrap();
        assert_eq!(
            fingerprint(&in_memory),
            fingerprint(&query.execute(&flat).unwrap())
        );

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&flat_path).unwrap();
    }

    #[test]
    fn torn_append_group_is_a_typed_error_never_a_panic() {
        let (repo, _, tail) = scenario_with_split(8);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("joinmi-torn-append-{}.jmi", std::process::id()));
        repo.save(&path).unwrap();
        let base_len = std::fs::metadata(&path).unwrap().len() as usize;

        let mut reloaded = TableRepository::load(&path).unwrap();
        reloaded.append_rows(&tail).unwrap();
        reloaded.append_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(bytes.len() > base_len);

        // Every torn prefix of the append group must fail typed; the base
        // artifact alone must still open.
        assert!(RepositorySnapshot::from_bytes(bytes[..base_len].to_vec()).is_ok());
        for cut in [
            base_len + 1,
            base_len + 17,
            (base_len + bytes.len()) / 2,
            bytes.len() - 1,
        ] {
            match RepositorySnapshot::from_bytes(bytes[..cut].to_vec()) {
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::UnexpectedSection { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt(_),
                ) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }

        // A flipped bit inside the group is a checksum mismatch.
        let mut flipped = bytes.clone();
        let target = base_len + (bytes.len() - base_len) / 2;
        flipped[target] ^= 0x10;
        assert!(matches!(
            RepositorySnapshot::from_bytes(flipped),
            Err(StoreError::ChecksumMismatch { .. } | StoreError::Corrupt(_))
        ));
    }

    /// Builds a repository file with two append groups and returns its bytes
    /// plus the durable boundaries: [base_end, group1_end, group2_end].
    fn appended_repo_bytes() -> (Vec<u8>, Vec<usize>, RelationshipQuery) {
        let (repo, query, tail) = scenario_with_split(8);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "joinmi-recover-build-{}-{:?}.jmi",
            std::process::id(),
            std::thread::current().id()
        ));
        repo.save(&path).unwrap();
        let mut boundaries = vec![std::fs::metadata(&path).unwrap().len() as usize];

        let mut reloaded = TableRepository::load(&path).unwrap();
        let split = tail.num_rows() / 2;
        reloaded.append_rows(&tail.slice_rows(0..split)).unwrap();
        reloaded.append_to(&path).unwrap();
        boundaries.push(std::fs::metadata(&path).unwrap().len() as usize);
        reloaded
            .append_rows(&tail.slice_rows(split..tail.num_rows()))
            .unwrap();
        reloaded.append_to(&path).unwrap();
        boundaries.push(std::fs::metadata(&path).unwrap().len() as usize);

        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        (bytes, boundaries, query)
    }

    #[test]
    fn recover_truncated_repairs_every_truncation_offset() {
        let (bytes, boundaries, query) = appended_repo_bytes();
        let base_end = boundaries[0];
        let path =
            std::env::temp_dir().join(format!("joinmi-recover-sweep-{}.jmi", std::process::id()));

        // Expected post-repair ranking per boundary, computed once.
        let rankings: Vec<_> = boundaries
            .iter()
            .map(|&b| {
                let snap = RepositorySnapshot::from_bytes(bytes[..b].to_vec()).unwrap();
                fingerprint(&query.execute(&snap).unwrap())
            })
            .collect();
        let mut ranked_boundaries = vec![false; boundaries.len()];

        for cut in base_end + 1..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let report = TableRepository::recover_truncated(&path).unwrap();
            let (bi, &expected) = boundaries
                .iter()
                .enumerate()
                .rfind(|&(_, &b)| b <= cut)
                .unwrap();
            assert_eq!(report.recovered_len, expected as u64, "cut at {cut}");
            assert_eq!(report.file_len, cut as u64, "cut at {cut}");
            assert_eq!(report.is_torn(), cut != expected, "cut at {cut}");
            assert_eq!(report.complete_groups, bi, "cut at {cut}");

            // The repaired file is the exact durable prefix (and, for torn
            // cuts, recover_truncated already re-opened it before shrinking).
            let repaired = std::fs::read(&path).unwrap();
            assert_eq!(repaired, &bytes[..expected], "cut at {cut}");

            // Once per reachable boundary, also pin that the repaired file
            // answers queries as that prefix of the append history.
            if !ranked_boundaries[bi] {
                ranked_boundaries[bi] = true;
                let snap = RepositorySnapshot::from_bytes(repaired).unwrap();
                assert_eq!(snap.append_groups(), bi, "cut at {cut}");
                assert_eq!(
                    fingerprint(&query.execute(&snap).unwrap()),
                    rankings[bi],
                    "cut at {cut}"
                );
            }
        }
        assert!(ranked_boundaries[..2].iter().all(|&r| r));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_truncated_never_drops_base_data() {
        let (bytes, boundaries, _) = appended_repo_bytes();
        let path =
            std::env::temp_dir().join(format!("joinmi-recover-base-{}.jmi", std::process::id()));

        // Truncation inside the base payload is unrecoverable: typed error,
        // file untouched.
        let cut = boundaries[0] / 2;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(TableRepository::recover_truncated(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap().len(), cut);

        // A flipped bit inside the base is damage, not a torn append.
        let mut flipped = bytes.clone();
        flipped[boundaries[0] / 2] ^= 0x20;
        std::fs::write(&path, &flipped).unwrap();
        assert!(TableRepository::recover_truncated(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), flipped);

        // An intact file is a no-op.
        std::fs::write(&path, &bytes).unwrap();
        let report = TableRepository::recover_truncated(&path).unwrap();
        assert!(!report.is_torn());
        assert_eq!(report.complete_groups, 2);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        std::fs::remove_file(&path).unwrap();
    }

    // -- compaction + sealing ---------------------------------------------

    #[test]
    fn compact_folds_append_groups_bit_for_bit() {
        let (bytes, _, query) = appended_repo_bytes();
        let path =
            std::env::temp_dir().join(format!("joinmi-compact-fold-{}.jmi", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let before = RepositorySnapshot::from_bytes(bytes.clone()).unwrap();
        let expected = fingerprint(&query.execute(&before).unwrap());
        assert_eq!(before.append_groups(), 2);
        assert!(before.appended_bytes() > 0);

        let report = TableRepository::compact(&path, CompactMode::Preserve).unwrap();
        assert_eq!(report.groups_folded, 2);
        assert_eq!(report.bytes_before, bytes.len() as u64);
        assert!(!report.sealed);

        let snap = TableRepository::load_mmap_like(&path).unwrap();
        assert_eq!(snap.append_groups(), 0);
        assert_eq!(snap.appended_bytes(), 0);
        assert!(!snap.sealed());
        assert_eq!(fingerprint(&query.execute(&snap).unwrap()), expected);

        // Preserve mode keeps the file appendable: a load → append → append_to
        // cycle still works against the compacted file.
        let mut reloaded = TableRepository::load(&path).unwrap();
        assert!(reloaded.is_appendable());
        let extra = joinmi_synth::TaxiScenario::generate(40, 15, 3)
            .demographics
            .slice_rows(0..3);
        reloaded.append_rows(&extra).unwrap();
        reloaded.append_to(&path).unwrap();
        assert_eq!(
            TableRepository::load_mmap_like(&path)
                .unwrap()
                .append_groups(),
            1
        );

        // Compaction is idempotent and canonical: compacting the compacted
        // file again reproduces its exact bytes.
        TableRepository::compact(&path, CompactMode::Preserve).unwrap();
        let first = std::fs::read(&path).unwrap();
        let report = TableRepository::compact(&path, CompactMode::Preserve).unwrap();
        assert_eq!(report.groups_folded, 0);
        assert_eq!(std::fs::read(&path).unwrap(), first);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seal_compaction_drops_state_and_rejects_appends() {
        let (bytes, _, query) = appended_repo_bytes();
        let path =
            std::env::temp_dir().join(format!("joinmi-compact-seal-{}.jmi", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let expected = {
            let snap = RepositorySnapshot::from_bytes(bytes.clone()).unwrap();
            fingerprint(&query.execute(&snap).unwrap())
        };

        let report = TableRepository::compact(&path, CompactMode::Seal).unwrap();
        assert_eq!(report.groups_folded, 2);
        assert!(report.sealed);
        assert!(
            report.bytes_after < report.bytes_before,
            "sealing must shed appended history and builder state \
             ({} -> {})",
            report.bytes_before,
            report.bytes_after
        );

        // Queries against the sealed file are bit-identical.
        let snap = TableRepository::load_mmap_like(&path).unwrap();
        assert!(snap.sealed());
        assert_eq!(snap.append_groups(), 0);
        assert_eq!(fingerprint(&query.execute(&snap).unwrap()), expected);

        // In-memory: a loaded sealed repository rejects all ingest, typed.
        let mut sealed = TableRepository::load(&path).unwrap();
        assert!(sealed.is_sealed());
        assert!(!sealed.is_appendable());
        let chunk = joinmi_synth::TaxiScenario::generate(40, 15, 3)
            .demographics
            .slice_rows(0..3);
        let err = sealed.append_rows(&chunk).expect_err("sealed repo");
        assert!(matches!(err, joinmi_table::TableError::Sealed(_)));

        // On disk: appending a group to the sealed file is typed too, and
        // leaves the file untouched.
        let (mut other, _, tail) = scenario_with_split(8);
        other.append_rows(&tail).unwrap();
        let file_before = std::fs::read(&path).unwrap();
        let err = other.append_to(&path).expect_err("sealed file");
        assert!(matches!(err, StoreError::Sealed { .. }));
        assert_eq!(std::fs::read(&path).unwrap(), file_before);

        // Sealing is sticky through another compaction.
        let report = TableRepository::compact(&path, CompactMode::Preserve).unwrap();
        assert!(report.sealed);
        assert!(TableRepository::load_mmap_like(&path).unwrap().sealed());

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sealing_in_memory_rejects_ingest_and_saves_lean() {
        let (mut repo, query) = sample_repo();
        let expected = fingerprint(&query.execute(&repo).unwrap());
        let unsealed_len = save_bytes(&repo).len();
        repo.seal();
        assert!(repo.is_sealed());
        let err = repo
            .add_table(demo_sealed_table())
            .expect_err("sealed repo rejects new tables");
        assert!(matches!(err, joinmi_table::TableError::Sealed(_)));

        let sealed_bytes = save_bytes(&repo);
        assert!(
            sealed_bytes.len() < unsealed_len,
            "sealed save must drop builder state ({unsealed_len} -> {})",
            sealed_bytes.len()
        );
        let loaded = TableRepository::load_from(sealed_bytes.as_slice()).unwrap();
        assert!(loaded.is_sealed());
        assert_eq!(fingerprint(&query.execute(&loaded).unwrap()), expected);
    }

    fn demo_sealed_table() -> joinmi_table::Table {
        joinmi_table::Table::builder("late")
            .push_str_column("k", vec!["a", "b"])
            .push_int_column("v", vec![1, 2])
            .build()
            .unwrap()
    }

    #[test]
    fn compact_composes_with_recover_truncated() {
        let (bytes, boundaries, query) = appended_repo_bytes();
        let path =
            std::env::temp_dir().join(format!("joinmi-compact-recover-{}.jmi", std::process::id()));

        // Tear the file mid-second-group, repair, then compact: the result
        // must rank exactly as the surviving one-group prefix.
        let cut = (boundaries[1] + boundaries[2]) / 2;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let report = TableRepository::recover_truncated(&path).unwrap();
        assert!(report.is_torn());
        assert_eq!(report.complete_groups, 1);
        let expected = {
            let snap = RepositorySnapshot::from_bytes(bytes[..boundaries[1]].to_vec()).unwrap();
            fingerprint(&query.execute(&snap).unwrap())
        };

        let compaction = TableRepository::compact(&path, CompactMode::Preserve).unwrap();
        assert_eq!(compaction.groups_folded, 1);
        let snap = TableRepository::load_mmap_like(&path).unwrap();
        assert_eq!(snap.append_groups(), 0);
        assert_eq!(fingerprint(&query.execute(&snap).unwrap()), expected);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_compacted_files_are_typed_errors() {
        // The compacted (sealed) writer produces a new layout — sweep
        // truncation offsets over it like the original corrupt-input suite.
        let (bytes, _, _) = appended_repo_bytes();
        let path = std::env::temp_dir().join(format!(
            "joinmi-compact-truncate-{}.jmi",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        TableRepository::compact(&path, CompactMode::Seal).unwrap();
        let sealed = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert!(RepositorySnapshot::from_bytes(sealed.clone()).is_ok());
        for cut in (0..sealed.len()).step_by(61).chain([sealed.len() - 1]) {
            match RepositorySnapshot::from_bytes(sealed[..cut].to_vec()) {
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::UnexpectedSection { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt(_),
                ) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }

        // A sealed file with trailing bytes (a smuggled append group) is
        // rejected outright.
        let mut trailing = sealed;
        trailing.extend_from_slice(&bytes[bytes.len() - 64..]);
        assert!(matches!(
            RepositorySnapshot::from_bytes(trailing),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn append_to_rejects_pre_v3_targets() {
        // A v2 target (no distinct sketches) must be rejected with the
        // re-ingest hint, not extended with mixed-format groups.
        let (mut repo, _, tail) = scenario_with_split(8);
        let path =
            std::env::temp_dir().join(format!("joinmi-append-v2-{}.jmi", std::process::id()));
        repo.save(&path).unwrap();

        // Downgrade the header to v2 in place (the payload difference does
        // not matter: the version gate fires before the meta is decoded).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        repo.append_rows(&tail).unwrap();
        let err = repo.append_to(&path).expect_err("v2 target");
        match err {
            StoreError::UnsupportedVersion {
                found: 2,
                supported: 3,
            } => assert!(err.to_string().contains("re-ingest"), "{err}"),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appended_distinct_counts_stay_fresh() {
        // Regression for the PR 5 trade-off: feature-column distinct counts
        // used to freeze at their base-ingest values under appends.
        let (mut repo, _, tail) = scenario_with_split(8);
        let table_index = repo
            .profiles()
            .iter()
            .position(|p| p.table == tail.name())
            .unwrap();
        let before: Vec<usize> = repo.profiles()[table_index]
            .columns
            .iter()
            .map(|c| c.distinct)
            .collect();
        repo.append_rows(&tail).unwrap();
        let after: Vec<usize> = repo.profiles()[table_index]
            .columns
            .iter()
            .map(|c| c.distinct)
            .collect();
        assert!(
            after.iter().zip(&before).any(|(a, b)| a > b),
            "appending fresh rows must raise at least one distinct count \
             (before {before:?}, after {after:?})"
        );
        // And the freshened counts survive a persistence round-trip.
        let reloaded = TableRepository::load_from(save_bytes(&repo).as_slice()).unwrap();
        let persisted: Vec<usize> = reloaded.profiles()[table_index]
            .columns
            .iter()
            .map(|c| c.distinct)
            .collect();
        assert_eq!(after, persisted);
    }

    #[test]
    fn append_to_rejects_mismatched_target() {
        let (mut repo, _, tail) = scenario_with_split(8);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("joinmi-append-mismatch-{}.jmi", std::process::id()));

        // Persist a *different* repository (one table only) as the target.
        let scenario = TaxiScenario::generate(40, 15, 3);
        let mut other = TableRepository::new(RepositoryConfig {
            sketch: SketchConfig::new(256, 3),
            ..RepositoryConfig::default()
        });
        other.add_table(scenario.weather).unwrap();
        other.save(&path).unwrap();

        repo.append_rows(&tail).unwrap();
        let err = repo.append_to(&path).expect_err("mismatched target");
        assert!(matches!(err, StoreError::Corrupt(_)));
        std::fs::remove_file(&path).unwrap();
    }
}
