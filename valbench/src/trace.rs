//! Spans recorded by the harness around its calls into the program's
//! public functions, kept in memory and written out as Chrome-trace JSON
//! when the run ends. Recording is off unless [`enable`] was called; a
//! disabled span costs one atomic load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique span id.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The layer (crate) the called function belongs to.
    pub layer: &'static str,
    /// The called function.
    pub name: &'static str,
    /// Serve request id, for spans around daemon requests.
    pub request: Option<u64>,
    /// Harness thread the call ran on.
    pub tid: u64,
    /// Start and end, microseconds since the harness started.
    pub start_us: f64,
    /// See `start_us`.
    pub end_us: f64,
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// An open span; records itself when dropped.
pub struct Guard(Option<Span>);

/// Opens a span around a call to `layer`'s function `name`.
#[must_use]
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    open(layer, name, None)
}

/// Opens a span around serve request `request`.
#[must_use]
pub fn request(layer: &'static str, name: &'static str, request: u64) -> Guard {
    open(layer, name, Some(request))
}

fn open(layer: &'static str, name: &'static str, request: Option<u64>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let tid = TID.with(|t| *t);
    let start_us = epoch().elapsed().as_secs_f64() * 1e6;
    Guard(Some(Span { id, parent, layer, name, request, tid, start_us, end_us: start_us }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(mut span) = self.0.take() else { return };
        span.end_us = epoch().elapsed().as_secs_f64() * 1e6;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == span.id) {
                s.truncate(pos);
            }
        });
        // A poisoned lock only means another recording thread panicked;
        // the vector itself is always whole.
        SPANS.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(span);
    }
}

/// Takes every span recorded so far, in start order.
#[must_use]
pub fn take() -> Vec<Span> {
    let mut spans =
        std::mem::take(&mut *SPANS.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
    spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    spans
}

/// Renders spans as a Chrome-trace document (`chrome://tracing`,
/// Perfetto): one complete (`"ph":"X"`) event per span, with the span
/// id, parent id and request id in `args`.
#[must_use]
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (k, s) in spans.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            s.layer,
            s.name,
            s.layer,
            s.tid,
            s.start_us,
            s.end_us - s.start_us,
            s.id,
            opt(s.parent),
            opt(s.request)
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_carry_parents_and_render() {
        enable();
        {
            let _outer = span("valmod", "outer-test");
            let _inner = request("serve", "inner-test", 7);
        }
        disable();
        {
            let _ignored = span("valmod", "disabled-test");
        }
        let spans: Vec<Span> = take().into_iter().filter(|s| s.name.ends_with("-test")).collect();
        assert_eq!(spans.len(), 2);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!((outer.name, outer.parent), ("outer-test", None));
        assert_eq!((inner.parent, inner.request), (Some(outer.id), Some(7)));
        assert!(inner.end_us <= outer.end_us && outer.start_us <= inner.start_us);
        let doc = crate::json::parse(&chrome_json(&spans)).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().arr().unwrap().len(), 2);
    }
}
