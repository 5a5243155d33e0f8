//! Structured spans with nesting and per-thread buffers.
//!
//! A [`Span`] is an RAII guard around a region of host work: entering
//! stamps a monotonic start time and a nesting depth, dropping stamps the
//! duration and appends one [`SpanRecord`] to the *current thread's*
//! buffer. Buffers are thread-owned — the recording path never contends
//! with other threads (the per-buffer lock is only ever taken by its own
//! thread during recording and by [`drain`] at collection time) — so pool
//! worker threads inside kernels record for free.
//!
//! Recording is **disabled by default**: when off, [`Span::enter`] is a
//! single relaxed atomic load and records nothing, which is what keeps the
//! always-on instrumentation inside the <2% overhead budget (enforced by
//! `tests/telemetry_overhead.rs`).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use cstf_base::lock;

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Span name (e.g. `"mttkrp"`, `"outer_iteration"`).
    pub name: &'static str,
    /// Optional mode index for per-mode work (`None` for modeless spans).
    pub mode: Option<u32>,
    /// Nesting depth on the recording thread (0 = top level).
    pub depth: u32,
    /// Recording thread's telemetry id (dense, assigned at first record).
    pub thread: u64,
    /// Start, in nanoseconds since the process-wide span epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// End of the span, in nanoseconds since the span epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }

    /// True when `child` lies strictly inside this span's interval on the
    /// same thread, one nesting level down.
    pub fn encloses(&self, child: &SpanRecord) -> bool {
        self.thread == child.thread
            && child.depth == self.depth + 1
            && self.start_ns <= child.start_ns
            && child.end_ns() <= self.end_ns()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One thread's shared record buffer, also held by the global registry.
type SharedBuffer = Arc<Mutex<Vec<SpanRecord>>>;

/// Registry of every thread's buffer, so [`drain`] can collect records
/// produced on pool workers as well as the caller's thread.
fn registry() -> &'static Mutex<Vec<SharedBuffer>> {
    static REGISTRY: OnceLock<Mutex<Vec<SharedBuffer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

struct ThreadBuffer {
    id: u64,
    depth: Cell<u32>,
    records: SharedBuffer,
}

thread_local! {
    static BUFFER: ThreadBuffer = {
        let records = Arc::new(Mutex::new(Vec::new()));
        lock(registry()).push(Arc::clone(&records));
        ThreadBuffer {
            id: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            depth: Cell::new(0),
            records,
        }
    };
}

/// Turns span recording on or off process-wide.
pub fn set_spans_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether span recording is currently enabled.
pub fn spans_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Takes every recorded span from every thread's buffer, sorted by
/// `(thread, start_ns)`, leaving the buffers empty.
pub fn drain() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for buf in lock(registry()).iter() {
        out.append(&mut lock(buf));
    }
    out.sort_by_key(|r| (r.thread, r.start_ns, r.depth));
    out
}

/// Discards every recorded span without returning them.
pub fn clear() {
    let _ = drain();
}

/// An RAII span guard: created by [`Span::enter`], records one
/// [`SpanRecord`] when dropped. A disabled span (`None` payload) is free.
#[must_use = "a span measures the region until it is dropped"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    name: &'static str,
    mode: Option<u32>,
    depth: u32,
    start: Instant,
    start_ns: u64,
}

impl Span {
    /// Enters a named span on the current thread. When recording is
    /// disabled this is one atomic load and the guard does nothing.
    pub fn enter(name: &'static str) -> Span {
        Self::open(name, None)
    }

    /// Enters a named span attributed to a tensor mode.
    pub fn enter_mode(name: &'static str, mode: usize) -> Span {
        Self::open(name, Some(mode as u32))
    }

    fn open(name: &'static str, mode: Option<u32>) -> Span {
        if !spans_enabled() {
            return Span(None);
        }
        let start = Instant::now();
        let start_ns = start.duration_since(epoch()).as_nanos() as u64;
        let depth = BUFFER.with(|b| {
            let d = b.depth.get();
            b.depth.set(d + 1);
            d
        });
        Span(Some(ActiveSpan { name, mode, depth, start, start_ns }))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            let dur_ns = active.start.elapsed().as_nanos() as u64;
            BUFFER.with(|b| {
                b.depth.set(b.depth.get().saturating_sub(1));
                lock(&b.records).push(SpanRecord {
                    name: active.name,
                    mode: active.mode,
                    depth: active.depth,
                    thread: b.id,
                    start_ns: active.start_ns,
                    dur_ns,
                });
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes span tests within this binary: the enable flag and the
    /// buffers are process-wide.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_spans<R>(f: impl FnOnce() -> R) -> R {
        let _g = gate();
        clear();
        set_spans_enabled(true);
        let out = f();
        set_spans_enabled(false);
        clear();
        out
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = gate();
        set_spans_enabled(false);
        {
            let _s = Span::enter("noop");
        }
        assert!(!spans_enabled());
    }

    #[test]
    fn nested_spans_record_depth_and_containment() {
        let records = with_spans(|| {
            {
                let _outer = Span::enter("outer");
                {
                    let _inner = Span::enter_mode("inner", 2);
                }
            }
            drain()
        });
        assert_eq!(records.len(), 2);
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.mode, Some(2));
        assert!(outer.encloses(inner), "outer must contain inner");
        assert!(inner.dur_ns <= outer.dur_ns, "child time must not exceed parent time");
    }

    #[test]
    fn sibling_spans_share_depth() {
        let records = with_spans(|| {
            {
                let _a = Span::enter("a");
            }
            {
                let _b = Span::enter("b");
            }
            drain()
        });
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.depth == 0));
    }

    #[test]
    fn drain_empties_the_buffers() {
        let (first, second) = with_spans(|| {
            {
                let _s = Span::enter("once");
            }
            (drain().len(), drain().len())
        });
        assert_eq!(first, 1);
        assert_eq!(second, 0);
    }

    #[test]
    fn spans_from_worker_threads_are_collected() {
        let records = with_spans(|| {
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        let _w = Span::enter("worker");
                    });
                }
            });
            drain()
        });
        assert_eq!(records.iter().filter(|r| r.name == "worker").count(), 3);
        let threads: std::collections::HashSet<u64> = records.iter().map(|r| r.thread).collect();
        assert_eq!(threads.len(), 3, "each worker records under its own thread id");
    }
}
