//! Correctness comparisons: daemon answers, replayed answers and in-process
//! rankings reduced to the fields that identify a ranking bit for bit.

use joinmi_discovery::RankedCandidate;
use joinmi_serve::json::Json;

/// One ranked row: global candidate index, MI bits, join size, key overlap,
/// and the credible-interval bits when present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub candidate: i64,
    pub mi_bits: String,
    pub join_size: i64,
    pub key_overlap: i64,
    pub ci_bits: Option<(String, String)>,
}

fn bits(x: f64) -> String {
    format!("0x{:016x}", x.to_bits())
}

/// The ranking carried by a `POST /v1/query` response body.
pub fn response_rows(body: &str) -> Result<Vec<Row>, String> {
    let doc = Json::parse(body).map_err(|e| format!("unparseable response: {e}"))?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("response has no results array")?;
    results
        .iter()
        .map(|r| {
            let int = |k: &str| r.get(k).and_then(Json::as_i64).ok_or(format!("no {k}"));
            let text = |k: &str| {
                r.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("no {k}"))
            };
            let ci_bits = match (text("ci_lo_bits"), text("ci_hi_bits")) {
                (Ok(lo), Ok(hi)) => Some((lo, hi)),
                _ => None,
            };
            Ok(Row {
                candidate: int("candidate_index")?,
                mi_bits: text("mi_bits")?,
                join_size: int("join_size")?,
                key_overlap: int("key_overlap")?,
                ci_bits,
            })
        })
        .collect()
}

/// The ranking of an in-process query over one repository (whose candidate
/// indices are the global ones).
pub fn ranked_rows(ranked: &[RankedCandidate]) -> Vec<Row> {
    ranked
        .iter()
        .map(|c| Row {
            candidate: c.candidate_index as i64,
            mi_bits: bits(c.mi),
            join_size: c.sketch_join_size as i64,
            key_overlap: c.key_overlap as i64,
            ci_bits: c.interval.map(|iv| (bits(iv.ci_lo), bits(iv.ci_hi))),
        })
        .collect()
}

/// The order alone: candidate and MI bits, as point and interval queries
/// must share it.
pub fn order(rows: &[Row]) -> Vec<(i64, String)> {
    rows.iter()
        .map(|r| (r.candidate, r.mi_bits.clone()))
        .collect()
}

/// An integer field of a JSON document, following a path of object keys.
pub fn json_int(doc: &Json, path: &[&str]) -> i64 {
    let mut node = doc;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_i64().unwrap_or(0)
}
