//! Bench-side spans for the traced pass.
//!
//! The traced pass wraps every call the drivers make into a layer in a
//! span `{name, start_ns, end_ns, parent, op_id}`. Spans live in a buffer
//! allocated before the first op and are written out when the workload
//! ends, so recording costs two clock reads and one push. Nothing inside
//! the program is instrumented: a span's *self time* (duration minus the
//! part its children cover) is therefore as deep as the public API lets
//! the benchmark see.
//!
//! The drivers are generic over [`Tracer`]; the timed pass instantiates
//! them with [`NoTrace`], whose methods are empty and inline away.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of an open span, handed from `enter` to `exit`.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

const NO_SPAN: u32 = u32::MAX;

pub trait Tracer {
    /// Marks the op (request) the following spans belong to.
    fn set_op(&mut self, op_id: u32);
    /// Opens a span under the innermost open one.
    fn enter(&mut self, name: &'static str) -> SpanId;
    /// Closes `id` (and makes its parent the innermost open span again).
    fn exit(&mut self, id: SpanId);
}

/// The timed pass: no spans, no clock reads.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn set_op(&mut self, _op_id: u32) {}
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) -> SpanId {
        SpanId(NO_SPAN)
    }
    #[inline(always)]
    fn exit(&mut self, _id: SpanId) {}
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, if any.
    pub parent: Option<u32>,
    pub op_id: u32,
}

/// One rank's span buffer.
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    current: u32,
    op_id: u32,
    /// Spans refused because the buffer was full (never reallocate while
    /// timing).
    pub dropped: u64,
}

impl SpanBuf {
    /// A buffer for at most `capacity` spans, measured from `epoch` (pass
    /// one epoch to all ranks of a process so their spans share a time
    /// line).
    pub fn new(capacity: usize, epoch: Instant) -> SpanBuf {
        SpanBuf {
            epoch,
            spans: Vec::with_capacity(capacity),
            current: NO_SPAN,
            op_id: 0,
            dropped: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Tracer for SpanBuf {
    fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    fn enter(&mut self, name: &'static str) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            // Keep paying the clock read, so a full buffer does not make
            // the rest of the traced pass cheaper than the recorded part.
            self.dropped += 1;
            std::hint::black_box(self.now_ns());
            return SpanId(NO_SPAN);
        }
        let id = self.spans.len() as u32;
        let parent = (self.current != NO_SPAN).then_some(self.current);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id: self.op_id,
        });
        self.current = id;
        SpanId(id)
    }

    fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        if id.0 == NO_SPAN {
            return;
        }
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        self.current = span.parent.unwrap_or(NO_SPAN);
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span: duration minus the durations of direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let d = s.end_ns - s.start_ns;
            own[p as usize] = own[p as usize].saturating_sub(d);
        }
    }
    own
}

/// Totals by span name, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own_ns;
    }
    by_name
}

/// Sum of self times of all spans ÷ sum of root-span durations: 1.0 when
/// the self times account for every traced op exactly.
pub fn self_time_cover(spans: &[Span]) -> f64 {
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    if roots == 0 {
        return 1.0;
    }
    self_times(spans).iter().sum::<u64>() as f64 / roots as f64
}

/// One rank's spans as the JSON written to `trace-<workload>.json`.
pub fn rank_json(rank: usize, buf: &SpanBuf) -> Json {
    let spans = buf
        .spans()
        .iter()
        .map(|s| {
            Json::obj()
                .with("name", Json::Str(s.name.into()))
                .with("start_ns", Json::Num(s.start_ns as f64))
                .with("end_ns", Json::Num(s.end_ns as f64))
                .with(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                )
                .with("op_id", Json::Num(s.op_id as f64))
        })
        .collect();
    let totals = totals_by_name(buf.spans())
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                Json::obj()
                    .with("count", Json::Num(t.count as f64))
                    .with("total_ns", Json::Num(t.total_ns as f64))
                    .with("self_ns", Json::Num(t.self_ns as f64)),
            )
        })
        .collect();
    Json::obj()
        .with("rank", Json::Num(rank as f64))
        .with("dropped", Json::Num(buf.dropped as f64))
        .with("self_time_cover", Json::Num(self_time_cover(buf.spans())))
        .with("totals", Json::Obj(totals))
        .with("spans", Json::Arr(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op_id: 0,
            },
            Span {
                name: "core.send",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op_id: 0,
            },
            Span {
                name: "core.recv",
                start_ns: 40,
                end_ns: 90,
                parent: Some(0),
                op_id: 0,
            },
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
        assert_eq!(self_time_cover(&spans), 1.0);
        let t = totals_by_name(&spans);
        assert_eq!(t["op"].self_ns, 20);
        assert_eq!(t["core.recv"].total_ns, 50);
    }

    #[test]
    fn nesting_follows_enter_exit_and_a_full_buffer_drops() {
        let mut buf = SpanBuf::new(2, Instant::now());
        buf.set_op(7);
        let op = buf.enter("op");
        let child = buf.enter("child");
        let refused = buf.enter("refused");
        buf.exit(refused);
        buf.exit(child);
        buf.exit(op);
        assert_eq!(buf.spans().len(), 2);
        assert_eq!(buf.dropped, 1);
        assert_eq!(buf.spans()[1].parent, Some(0));
        assert_eq!(buf.spans()[0].parent, None);
        assert!(buf.spans().iter().all(|s| s.op_id == 7));
        assert!(buf.spans()[0].end_ns >= buf.spans()[1].end_ns);
    }
}
