//! Spans the benchmark records around its own calls into the service:
//! name, start, end, parent span and request id, kept in memory and
//! written out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Span id meaning "no parent".
pub const ROOT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the recorder.
    pub id: u32,
    /// The span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// The layer call this span covers.
    pub name: &'static str,
    /// The request the span belongs to (its log index), or `u64::MAX`.
    pub request: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Room kept beyond the capacity for spans without a parent (windows,
/// engine starts), so a recorder filled by request spans still keeps the
/// spans that frame them.
const ROOT_HEADROOM: usize = 64;

/// An in-memory span store. Capacity is reserved up front so recording
/// never reallocates inside a timed window; spans beyond it are counted,
/// not kept.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    limit: usize,
    next_id: u32,
    dropped: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the parts their children cover.
    pub self_ns: u64,
}

impl Spans {
    /// A recorder that keeps at most `capacity` spans.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity + ROOT_HEADROOM),
            limit: capacity,
            next_id: 0,
            dropped: 0,
        }
    }

    /// Reserves an id for a span recorded later with [`Spans::record`].
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Records span `id` over `start..end`.
    pub fn record(
        &mut self,
        id: u32,
        parent: u32,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let full = if parent == ROOT {
            self.spans.len() == self.spans.capacity()
        } else {
            self.spans.len() >= self.limit
        };
        if full {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        });
    }

    /// Records a fresh span over `start..end`; returns its id.
    pub fn add(
        &mut self,
        parent: u32,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.reserve();
        self.record(id, parent, name, request, start, end);
        id
    }

    /// Spans that did not fit.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the union of its children's intervals, clipped
    /// to it.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &self.spans {
            if span.parent != ROOT {
                children
                    .entry(span.parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for span in &self.spans {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let covered = children
                .get_mut(&span.id)
                .map_or(0, |kids| covered_ns(kids, span.start_ns, span.end_ns));
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration - covered;
        }
        totals
    }

    /// Writes every span as a tab-separated line:
    /// `id parent name request start_ns end_ns` (`-` for no parent or
    /// request).
    ///
    /// # Errors
    ///
    /// Any error from `out`.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns")?;
        for span in &self.spans {
            let parent = if span.parent == ROOT {
                "-".to_owned()
            } else {
                span.parent.to_string()
            };
            let request = if span.request == u64::MAX {
                "-".to_owned()
            } else {
                span.request.to_string()
            };
            writeln!(
                out,
                "{}\t{parent}\t{}\t{request}\t{}\t{}",
                span.id, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `start..end`; sorts
/// `intervals` in place.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        let hi = hi.min(end);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::with_capacity(8);
        let t = |ns: u64| spans.epoch + Duration::from_nanos(ns);
        let (t0, t10, t20, t30, t40, t100) = (t(0), t(10), t(20), t(30), t(40), t(100));
        let parent = spans.add(ROOT, "window", u64::MAX, t0, t100);
        // Two overlapping children cover 10..40, one more 20..30 inside.
        spans.add(parent, "request", 1, t10, t30);
        spans.add(parent, "request", 2, t20, t40);
        spans.add(parent, "request", 3, t20, t30);
        let totals = spans.totals();
        assert_eq!(
            totals["window"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 70
            }
        );
        assert_eq!(totals["request"].count, 3);
        assert_eq!(totals["request"].self_ns, 50);
    }

    #[test]
    fn full_recorder_counts_instead_of_growing() {
        let mut spans = Spans::with_capacity(1);
        let now = Instant::now();
        spans.add(0, "a", 0, now, now);
        spans.add(0, "b", 1, now, now);
        assert_eq!(spans.dropped(), 1);
        // A parentless span still fits in the headroom.
        spans.add(ROOT, "window", u64::MAX, now, now);
        assert_eq!(spans.dropped(), 1);
        let mut out = Vec::new();
        spans.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.lines().nth(1).unwrap().starts_with("0\t0\ta\t0\t"));
        assert!(text
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("2\t-\twindow\t-\t"));
    }
}
