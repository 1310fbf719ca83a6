//! Span recording around calls into the program's layers. Spans are kept in
//! memory and written out when the benchmark ends; a layer's self time is
//! its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans. With recording off, `enter`/`exit` do nothing, so
/// the same replay code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

/// A handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close in LIFO order");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Self time (ns) and call count per span name, over the spans whose
    /// request passes `keep`.
    pub fn self_times(&self, keep: impl Fn(u32) -> bool) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            if keep(span.request) {
                let entry = out.entry(span.name).or_default();
                entry.0 += span.duration_ns().saturating_sub(children);
                entry.1 += 1;
            }
        }
        out
    }

    /// Inclusive duration (ns) of every span named `name`, keyed by request.
    pub fn inclusive_by_request(&self, name: &str) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(span.request).or_default() += span.duration_ns();
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `request name start_ns end_ns parent`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tname\tstart_ns\tend_ns\tparent")?;
        for span in &self.spans {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                span.request, span.name, span.start_ns, span.end_ns, parent
            )?;
        }
        out.flush()
    }
}

/// The layer a span name belongs to: the repository module it measures.
pub fn layer_of(name: &str) -> &str {
    const LAYERS: [&str; 11] = [
        "serve.http",
        "serve.server",
        "serve.wire",
        "serve.guard",
        "serve.shard",
        "discovery.query",
        "discovery.cache",
        "discovery.repository",
        "discovery.persist",
        "core",
        "estimators",
    ];
    LAYERS
        .iter()
        .find(|layer| name.starts_with(*layer))
        .copied()
        .unwrap_or(name)
}
