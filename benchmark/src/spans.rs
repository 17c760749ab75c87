//! In-memory spans recorded by the benchmark around its calls into the
//! system, and the self-time computation over them.
//!
//! A [`Spans`] recorder is either on or off. Off, every method is a branch
//! on a bool and nothing is stored, so untraced runs pay nothing for the
//! calls. On, spans are kept in memory (up to a cap) and written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `resilience.maintenance`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start: u64,
    /// End, in nanoseconds since the recorder's origin (≥ `start`).
    pub end: u64,
    /// The span that caused it.
    pub parent: Option<SpanId>,
}

/// The span recorder.
pub struct Spans {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    cap: usize,
}

impl Spans {
    /// A recorder for run `run_id`; records nothing unless `enabled`.
    #[must_use]
    pub fn new(enabled: bool, run_id: u64, cap: usize) -> Self {
        Spans {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cap,
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start or stop recording.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether at least `n` more spans fit under the cap.
    #[must_use]
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.len() + n <= self.cap
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Close a span opened by [`Spans::begin`] (innermost first).
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let end = self.now();
        self.spans[id].end = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times in nanoseconds, grouped by span name.
    #[must_use]
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, t) in self.spans.iter().zip(self_times(&self.spans)) {
            out.entry(span.name).or_default().push(t as f64);
        }
        out
    }

    /// Write every span as one tab-separated line: run id, span id, parent
    /// id (`-` for a root), name, start and end in nanoseconds.
    ///
    /// # Errors
    /// Any I/O error of the writer.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "run\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                self.run_id, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other; the covered
/// part is their union, clipped to the parent's interval.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 45, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![75, 12, 5, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 10, 50, None),
            span("a", 0, 20, Some(0)),
            span("b", 15, 30, Some(0)),
            span("c", 25, 28, Some(0)),
            span("d", 45, 90, Some(0)),
        ];
        // Covered: [10, 30) ∪ [45, 50) = 25 of 40.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn recorder_nests_and_groups_by_name() {
        let mut rec = Spans::new(true, 7, 16);
        let outer = rec.begin("outer");
        rec.time("inner", || std::hint::black_box(1 + 1));
        rec.time("inner", || ());
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let by_name = rec.self_times_by_name();
        assert_eq!(by_name["inner"].len(), 2);
        assert_eq!(by_name["outer"].len(), 1);
        let mut tsv = Vec::new();
        rec.write_tsv(&mut tsv).expect("in-memory write");
        let text = String::from_utf8(tsv).expect("utf-8");
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .nth(2)
            .expect("line")
            .starts_with("7\t1\t0\tinner\t"));
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = Spans::new(false, 1, 16);
        let id = rec.begin("x");
        assert_eq!(id, None);
        rec.end(id);
        assert_eq!(rec.time("y", || 5), 5);
        assert!(rec.spans().is_empty());
    }
}
