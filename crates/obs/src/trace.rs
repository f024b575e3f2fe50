//! Span tracer: bounded ring of spans with parent links and attributes.
//!
//! Timestamps are caller-supplied (`u64` — scheduler ticks or wall-clock
//! units, the tracer doesn't care), which keeps traces reproducible under
//! the simulated clock.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Opaque span handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// Propagated causal context: the root span of a unit of work (the trace)
/// plus the span new children should hang under. Minted where the work
/// enters the system (an HTTP request, a job submission) and threaded by
/// value through every layer that records spans, so the whole life of the
/// work renders as one connected tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Root span of the trace.
    pub root: SpanId,
    /// Current parent for new child spans/events.
    pub parent: SpanId,
}

impl TraceContext {
    /// A fresh context rooted at (and parenting under) `span`.
    pub fn new(span: SpanId) -> Self {
        TraceContext {
            root: span,
            parent: span,
        }
    }

    /// Same trace, re-parented under `parent` (for handing to a deeper
    /// layer whose spans should nest under an intermediate span).
    pub fn under(&self, parent: SpanId) -> Self {
        TraceContext {
            root: self.root,
            parent,
        }
    }
}

/// One recorded span. A point event is a span with `end == Some(start)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start: u64,
    pub end: Option<u64>,
    pub attrs: Vec<(String, String)>,
}

impl Span {
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

struct TracerInner {
    next_id: u64,
    ring: VecDeque<Span>,
    dropped: u64,
}

/// Bounded span recorder. All methods take `&self`.
pub struct Tracer {
    inner: Mutex<TracerInner>,
    capacity: usize,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Tracer {
            inner: Mutex::new(TracerInner {
                next_id: 1,
                ring: VecDeque::new(),
                dropped: 0,
            }),
            capacity,
        }
    }

    /// The state, recovered if a panicking holder poisoned the lock.
    fn lock(&self) -> MutexGuard<'_, TracerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, mut make: impl FnMut(u64) -> Span) -> SpanId {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(make(id));
        SpanId(id)
    }

    /// Open a root span.
    pub fn begin(&self, name: &str, at: u64) -> SpanId {
        self.push(|id| Span {
            id,
            parent: None,
            name: name.to_string(),
            start: at,
            end: None,
            attrs: Vec::new(),
        })
    }

    /// Close a span. Unknown ids (already evicted from the ring) are ignored.
    pub fn end(&self, id: SpanId, at: u64) {
        let mut inner = self.lock();
        if let Some(span) = inner.ring.iter_mut().find(|s| s.id == id.0) {
            span.end = Some(at);
        }
    }

    /// Attach an attribute to an open or closed span still in the ring.
    pub fn set_attr(&self, id: SpanId, key: &str, value: &str) {
        let mut inner = self.lock();
        if let Some(span) = inner.ring.iter_mut().find(|s| s.id == id.0) {
            span.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Record a zero-duration point event with attributes.
    pub fn event(&self, name: &str, at: u64, attrs: &[(&str, &str)]) -> SpanId {
        self.push(|id| Span {
            id,
            parent: None,
            name: name.to_string(),
            start: at,
            end: Some(at),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        })
    }

    /// Record a zero-duration point event as a child of `parent`.
    pub fn event_child(
        &self,
        parent: SpanId,
        name: &str,
        at: u64,
        attrs: &[(&str, &str)],
    ) -> SpanId {
        self.push(|id| Span {
            id,
            parent: Some(parent.0),
            name: name.to_string(),
            start: at,
            end: Some(at),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        })
    }

    /// Every span still in the ring reachable from `root` through parent
    /// links (root included), ordered by (start, id). Evicted spans simply
    /// vanish from the result; pair with [`dropped`] to report truncation.
    ///
    /// [`dropped`]: Tracer::dropped
    pub fn subtree(&self, root: SpanId) -> Vec<Span> {
        let inner = self.lock();
        // Ids are assigned in push order and a child is always created
        // after its parent, so one forward pass over the id-ordered ring
        // sees every parent before its children.
        let mut keep = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for s in inner.ring.iter() {
            if s.id == root.0 || s.parent.is_some_and(|p| keep.contains(&p)) {
                keep.insert(s.id);
                out.push(s.clone());
            }
        }
        out.sort_by_key(|s| (s.start, s.id));
        out
    }

    /// Copy of the ring, oldest first.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().ring.iter().cloned().collect()
    }

    /// All spans carrying `key == value`, ordered by (start, id).
    pub fn find_by_attr(&self, key: &str, value: &str) -> Vec<Span> {
        let mut out: Vec<Span> = self
            .lock()
            .ring
            .iter()
            .filter(|s| s.attr(key) == Some(value))
            .cloned()
            .collect();
        out.sort_by_key(|s| (s.start, s.id));
        out
    }

    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let t = Tracer::new(16);
        let root = t.begin("request", 10);
        let child = t.event_child(root, "compile", 11, &[]);
        t.set_attr(child, "path", "lab1.mini");
        t.end(root, 15);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "request");
        assert_eq!(spans[0].end, Some(15));
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].attr("path"), Some("lab1.mini"));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Tracer::new(3);
        for i in 0..5 {
            t.event("e", i, &[]);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let spans = t.snapshot();
        assert_eq!(spans.first().unwrap().start, 2);
        // Ending an evicted span is a no-op, not a panic.
        t.end(SpanId(1), 99);
    }

    #[test]
    fn subtree_follows_parent_links_and_skips_other_traces() {
        let t = Tracer::new(16);
        let root = t.begin("request", 1);
        let mid = t.event_child(root, "sched", 2, &[]);
        t.event_child(mid, "wal.append", 3, &[("lsn", "7")]);
        t.event("unrelated", 4, &[]);
        let other = t.begin("other-request", 5);
        t.event_child(other, "child-of-other", 6, &[]);
        t.event_child(root, "done", 9, &[]);
        let tree = t.subtree(root);
        assert_eq!(
            tree.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["request", "sched", "wal.append", "done"]
        );
        assert_eq!(tree[2].parent, Some(mid.0));
        assert_eq!(tree[2].attr("lsn"), Some("7"));
        // Grandchildren connect through the intermediate span.
        let ctx = TraceContext::new(root);
        assert_eq!(ctx.under(mid).root, root);
        assert_eq!(ctx.under(mid).parent, mid);
    }

    #[test]
    fn find_by_attr_orders_by_start_then_id() {
        let t = Tracer::new(16);
        t.event("b", 5, &[("job", "1")]);
        t.event("a", 2, &[("job", "1")]);
        t.event("other", 3, &[("job", "2")]);
        t.event("c", 5, &[("job", "1")]);
        let found = t.find_by_attr("job", "1");
        assert_eq!(
            found.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
    }
}
