//! In-memory spans around the benchmark's calls into the client layer,
//! written out when the run ends.
//!
//! Each generator loop iteration is a `tick` span; `submit`, `flush`,
//! `poll` and `wait` spans are its children. Submit and poll spans carry
//! the op's session sequence number. Children of one tick never overlap,
//! so a tick's self time (the generator's own work) is its duration minus
//! the sum of its children's.

use std::io::Write;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Tick,
    Submit,
    Flush,
    Poll,
    Wait,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Tick => "tick",
            Kind::Submit => "submit",
            Kind::Flush => "flush",
            Kind::Poll => "poll",
            Kind::Wait => "wait",
        }
    }
}

/// No sequence number (a poll that found nothing, a flush, a wait).
pub const NO_SEQ: u64 = u64::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub conn: u8,
    /// Index of the enclosing tick span (a tick points at itself).
    pub parent: u32,
    pub seq: u64,
    /// Nanoseconds since the window opened.
    pub t0: u64,
    pub t1: u64,
}

/// Span store. Disabled tracers record nothing and cost one branch.
#[derive(Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    tick: u32,
}

/// Per-call costs derived from the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Summary {
    pub spans: usize,
    pub submit_ns_per_op: f64,
    pub flush_ns_per_call: f64,
    pub poll_ns_per_call: f64,
    /// Time in `wait` spans over the traced interval.
    pub wait_frac: f64,
    /// Generator self time (tick minus children) per submitted op.
    pub loadgen_self_ns_per_op: f64,
}

impl Tracer {
    pub fn new(on: bool, capacity: usize) -> Tracer {
        Tracer { on, spans: Vec::with_capacity(if on { capacity } else { 0 }), tick: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Open a tick; its children recorded until the next `tick` point at it.
    #[inline]
    pub fn tick(&mut self, t0: u64) {
        if self.on {
            self.tick = self.spans.len() as u32;
            let tick = self.tick;
            self.spans.push(Span {
                kind: Kind::Tick,
                conn: 0,
                parent: tick,
                seq: NO_SEQ,
                t0,
                t1: t0,
            });
        }
    }

    /// Close the open tick at `t1`.
    #[inline]
    pub fn end_tick(&mut self, t1: u64) {
        if self.on {
            self.spans[self.tick as usize].t1 = t1;
        }
    }

    #[inline]
    pub fn span(&mut self, kind: Kind, conn: usize, seq: u64, t0: u64, t1: u64) {
        if self.on {
            self.spans.push(Span { kind, conn: conn as u8, parent: self.tick, seq, t0, t1 });
        }
    }

    /// Per-call costs over a traced interval of `window_ns`.
    pub fn summary(&self, window_ns: u64) -> Summary {
        let mut total = [0u64; 5];
        let mut calls = [0u64; 5];
        for s in &self.spans {
            let k = s.kind as usize;
            total[k] += s.t1 - s.t0;
            calls[k] += 1;
        }
        let per = |k: Kind| crate::stats::ratio(total[k as usize] as f64, calls[k as usize] as f64);
        let children: u64 = total[1..].iter().sum();
        Summary {
            spans: self.spans.len(),
            submit_ns_per_op: per(Kind::Submit),
            flush_ns_per_call: per(Kind::Flush),
            poll_ns_per_call: per(Kind::Poll),
            wait_frac: crate::stats::ratio(total[Kind::Wait as usize] as f64, window_ns as f64),
            loadgen_self_ns_per_op: crate::stats::ratio(
                total[Kind::Tick as usize].saturating_sub(children) as f64,
                calls[Kind::Submit as usize] as f64,
            ),
        }
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tkind\tconn\tparent\tseq\tt0_ns\tt1_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let seq = if s.seq == NO_SEQ { -1 } else { s.seq as i64 };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{seq}\t{}\t{}",
                s.kind.name(),
                s.conn,
                s.parent,
                s.t0,
                s.t1
            )?;
        }
        w.flush()
    }
}
