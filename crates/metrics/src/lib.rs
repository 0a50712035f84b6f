//! kite-metrics: live observability primitives for the Kite reproduction.
//!
//! Dependency-free by design (like `kite-lint`): this crate sits *below*
//! every other workspace crate, so the kvs store, the protocol core, the WAL
//! and the TCP fabric can all record into it without dependency cycles.
//!
//! Three primitives plus a registry:
//!
//! * [`Counter`] / [`Gauge`] — cache-line-padded relaxed atomics;
//! * [`Histogram`] — log2-bucketed, lock-free to record, snapshots merge
//!   across workers so p50/p99/p999 can be reported cluster-wide;
//! * [`Hll`] — HyperLogLog distinct-keys sketch with CAS-max registers
//!   (cardinality is the one statistic plain counters cannot give).
//!
//! All *recording* paths (`Counter::add`, `Gauge::set`, `Histogram::record`,
//! `Hll::observe`) are lock-free and allocation-free — they are `// kite-lint:
//! no-alloc` regions and covered by the allocation-guard test. The
//! [`Registry`] itself uses a mutex, but only for registration (startup) and
//! rendering (scrape time); nothing on an op's critical path touches it.
//!
//! Rendering is a plain-text `key value` line per metric — no wire format,
//! no HTTP, greppable from a shell. Histograms render four lines
//! (`_count`, `_p50`, `_p99`, `_p999`), sketches one (`_est`).

pub mod histogram;
pub mod hll;

pub use histogram::{bucket_of, Histogram, HistogramSnapshot, BUCKETS};
pub use hll::{mix64, Hll, HLL_B, HLL_M};

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotone counter, padded to its own cache-line pair so independent
/// counters never false-share. Padding matters: the protocol counters are
/// bumped on every completed request from every worker.
///
/// Every counter here orders nothing: readers want an eventually-accurate
/// total, never a happens-before edge, so each access is `Relaxed`.
#[repr(align(128))]
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Bump by one. Lock-free, allocation-free.
    // kite-lint: no-alloc
    #[inline]
    pub fn incr(&self) {
        // ordering: statistics only (see the type docs).
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Bump by `n`. Lock-free, allocation-free.
    // kite-lint: no-alloc
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: statistics only (see the type docs).
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        // ordering: statistics only (see the type docs).
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Last-write-wins gauge (watermarks, queue depths, backoff phases).
#[repr(align(128))]
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value. Lock-free, allocation-free.
    // kite-lint: no-alloc
    #[inline]
    pub fn set(&self, v: u64) {
        // ordering: a monitoring value; nothing is published behind it.
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        // ordering: a monitoring value; nothing is published behind it.
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric. `Poll` adapts pre-existing atomics (e.g. the
/// protocol's `ProtoCounters`, per-link fabric stats, WAL watermarks) into
/// the registry without copying them into new storage: the closure reads the
/// live value at scrape time.
pub enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Hll(Arc<Hll>),
    Poll(Box<dyn Fn() -> u64 + Send + Sync>),
    /// Snapshot-at-scrape-time histogram owned elsewhere (e.g. embedded in
    /// a shared struct the registry cannot hold an `Arc<Histogram>` into).
    PollHistogram(Box<dyn Fn() -> HistogramSnapshot + Send + Sync>),
}

/// Name → metric table rendered as `key value` lines. Registration and
/// rendering take a mutex; the metrics themselves are lock-free, so nothing
/// on a request's critical path ever blocks here.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<(String, Metric)>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            entries: Mutex::new(Vec::new()),
        }
    }

    pub fn register(&self, name: &str, metric: Metric) {
        self.entries
            .lock()
            .expect("metrics registry poisoned")
            .push((name.to_string(), metric));
    }

    /// Create and register a counter in one step.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.register(name, Metric::Counter(Arc::clone(&c)));
        c
    }

    /// Create and register a gauge in one step.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.register(name, Metric::Gauge(Arc::clone(&g)));
        g
    }

    /// Create and register a histogram in one step.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.register(name, Metric::Histogram(Arc::clone(&h)));
        h
    }

    /// Create and register an HLL sketch in one step.
    pub fn hll(&self, name: &str) -> Arc<Hll> {
        let h = Arc::new(Hll::new());
        self.register(name, Metric::Hll(Arc::clone(&h)));
        h
    }

    /// Register a closure polled at scrape time — the bridge for atomics
    /// that already live elsewhere (ProtoCounters, LinkState, WalStats).
    pub fn poll_fn<F>(&self, name: &str, f: F)
    where
        F: Fn() -> u64 + Send + Sync + 'static,
    {
        self.register(name, Metric::Poll(Box::new(f)));
    }

    /// Register a histogram snapshotted at scrape time — the bridge for
    /// histograms embedded in structs owned by other layers.
    pub fn poll_histogram<F>(&self, name: &str, f: F)
    where
        F: Fn() -> HistogramSnapshot + Send + Sync + 'static,
    {
        self.register(name, Metric::PollHistogram(Box::new(f)));
    }

    /// Render every metric as `key value\n` in registration order.
    pub fn render(&self, out: &mut String) {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        for (name, m) in entries.iter() {
            match m {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{} {}", name, c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", name, g.get());
                }
                Metric::Poll(f) => {
                    let _ = writeln!(out, "{} {}", name, f());
                }
                Metric::Histogram(h) => {
                    render_hist(out, name, &h.snapshot());
                }
                Metric::PollHistogram(f) => {
                    render_hist(out, name, &f());
                }
                Metric::Hll(h) => {
                    let _ = writeln!(out, "{}_est {}", name, h.estimate());
                }
            }
        }
    }

    /// Convenience: render into a fresh string.
    pub fn render_to_string(&self) -> String {
        let mut s = String::new();
        self.render(&mut s);
        s
    }
}

fn render_hist(out: &mut String, name: &str, s: &HistogramSnapshot) {
    let _ = writeln!(out, "{}_count {}", name, s.count);
    let _ = writeln!(out, "{}_p50 {}", name, s.p50());
    let _ = writeln!(out, "{}_p99 {}", name, s.p99());
    let _ = writeln!(out, "{}_p999 {}", name, s.p999());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_padded() {
        // The lockfree driver's stats and `ProtoCounters` rely on each
        // counter owning its cache-line pair.
        assert!(std::mem::align_of::<Counter>() >= 128);
        assert_eq!(std::mem::size_of::<Counter>(), 128);
    }

    #[test]
    fn registry_renders_key_value_lines() {
        let r = Registry::new();
        let c = r.counter("ops");
        let g = r.gauge("depth");
        let h = r.histogram("lat");
        let sk = r.hll("keys");
        r.poll_fn("answer", || 42);
        c.add(3);
        g.set(7);
        h.record(100);
        sk.observe(1);
        sk.observe(2);
        let out = r.render_to_string();
        assert!(out.contains("ops 3\n"), "{out}");
        assert!(out.contains("depth 7\n"), "{out}");
        assert!(out.contains("answer 42\n"), "{out}");
        assert!(out.contains("lat_count 1\n"), "{out}");
        assert!(out.contains("lat_p99 "), "{out}");
        assert!(out.contains("keys_est 2\n"), "{out}");
        // every line is exactly `key value`
        for line in out.lines() {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }
}
