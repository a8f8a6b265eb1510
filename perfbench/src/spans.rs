//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began (its parent) and the id of the window or workload it served.
//! Spans are kept in memory while the benchmark runs and written out when
//! it ends. A layer's self time is its spans' duration minus the part
//! their children cover; the self time of a root span is the time the
//! benchmark's own loop spent between layer calls, so it is what the
//! layers leave unexplained of the wall clock.
//!
//! A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span. Times are ns since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// Index of the parent span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (zero while open).
    pub end_ns: u64,
    /// The window's or workload's id.
    pub id: u64,
}

/// Handle to an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct Open(Option<u32>);

/// Totals for every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans, ns.
    pub self_ns: u64,
}

/// Spans per storage chunk: recording never moves what is already
/// stored, so a long run pays no reallocation copies.
const CHUNK: usize = 1 << 16;

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    chunks: Vec<Vec<Span>>,
    len: usize,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder; `on == false` gives one that records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            names: Vec::new(),
            chunks: Vec::new(),
            len: 0,
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off from here on. Only legal between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    fn name_index(&mut self, name: &'static str) -> u16 {
        // Hot loops use the names registered last; a literal usually
        // compares equal by address before its bytes are read.
        let same = |n: &&str| std::ptr::eq(n.as_ptr(), name.as_ptr()) && n.len() == name.len();
        if let Some(i) = self.names.iter().rposition(same) {
            return i as u16;
        }
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        u16::try_from(self.names.len() - 1).expect("fewer than 65536 span names")
    }

    /// Opens a span named `name` for the window or workload `id`, as a
    /// child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let name = self.name_index(name);
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let idx = u32::try_from(self.len).expect("fewer than 2^32 spans");
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.len += 1;
        self.stack.push(idx);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.chunks
            .last_mut()
            .expect("a chunk was pushed")
            .push(Span {
                name,
                parent,
                start_ns,
                end_ns: 0,
                id,
            });
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`]; spans close innermost
    /// first.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else {
            return;
        };
        let end = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(idx), "spans close innermost first");
        let idx = idx as usize;
        self.chunks[idx / CHUNK][idx % CHUNK].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let open = self.enter(name, id);
        let r = f(self);
        self.exit(open);
        r
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.chunks.iter().flatten()
    }

    /// Per-name totals over every closed span.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.len];
        for s in self.spans() {
            if s.parent != ROOT && s.end_ns != 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, &children) in self.spans().zip(&child_ns) {
            if s.end_ns == 0 {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let l = out.entry(self.names[s.name as usize]).or_default();
            l.count += 1;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Writes the spans out: `<stem>.names` holds the name table, one
    /// name per line, and `<stem>.spans` one 40-byte record per span of
    /// five little-endian `u64`s: name index, parent index (`u32::MAX`
    /// for a root), start ns, end ns, id.
    pub fn write(&self, stem: &Path) -> std::io::Result<()> {
        std::fs::write(stem.with_extension("names"), self.names.join("\n") + "\n")?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(stem.with_extension("spans"))?);
        for s in self.spans() {
            for v in [
                u64::from(s.name),
                u64::from(s.parent),
                s.start_ns,
                s.end_ns,
                s.id,
            ] {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_roots_reconcile() {
        let mut t = Tracer::new(true);
        let root = t.enter("segment", 0);
        spin(200_000);
        for w in 0..3 {
            t.span("submit", w, |t| {
                spin(100_000);
                t.span("msg", w, |_| spin(100_000));
            });
        }
        t.exit(root);
        let layers = t.layers();
        let seg = layers["segment"];
        let submit = layers["submit"];
        let msg = layers["msg"];
        assert_eq!((seg.count, submit.count, msg.count), (1, 3, 3));
        assert_eq!(submit.total_ns, submit.self_ns + msg.total_ns);
        // Self times along the chain add up to the root's wall time.
        assert_eq!(seg.self_ns + submit.self_ns + msg.self_ns, seg.total_ns);
        assert!(seg.self_ns >= 200_000);
        let parents: Vec<u32> = t.spans().map(|s| s.parent).collect();
        assert_eq!(&parents[..3], &[ROOT, 0, 1]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("a", 1, |t| t.span("b", 2, |_| 5));
        assert_eq!(x, 5);
        assert_eq!(t.spans().count(), 0);
        assert!(t.layers().is_empty());
    }
}
