//! The one generator thread: drives two pipelined `RemoteSession`s (to
//! nodes 0 and 1) open or closed loop, times every op, checks every
//! output, and gives each op a deadline.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use kite::api::{Completion, Op, OpOutput};
use kite_net::RemoteSession;

use crate::host;
use crate::trace::{Kind, Tracer, NO_SEQ};
use crate::workload::{check_value, Class, Gen, Planned, HOT_BASE};

/// `done_ns` of an op that never completed.
pub const NOT_DONE: u64 = u64::MAX;

/// Longest open-loop nap: completions are read (and timestamped) at the
/// latest this long after they land while the schedule is idle.
const MAX_NAP: Duration = Duration::from_micros(200);
/// Closed-loop nap when a tick made no progress.
const IDLE_NAP: Duration = Duration::from_micros(20);

/// One op as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct OpRec {
    pub class: Class,
    pub conn: u8,
    /// Latency origin: the scheduled send (open loop) or the submit
    /// (closed loop), ns after the window opened.
    pub due_ns: u64,
    /// Completion arrival, or [`NOT_DONE`].
    pub done_ns: u64,
    /// `completed_at − invoked_at` as stamped by the serving node.
    pub server_ns: u64,
}

impl OpRec {
    pub fn latency_ns(&self) -> Option<u64> {
        (self.done_ns != NOT_DONE).then(|| self.done_ns.saturating_sub(self.due_ns))
    }
}

/// What to drive.
pub enum Load<'a> {
    /// A precomputed arrival schedule.
    Open(&'a [Planned]),
    /// Keep `window` ops in flight per connection until `until_ns`.
    Closed { gen: &'a mut Gen, window: usize, until_ns: u64 },
}

pub struct DriveCfg {
    /// An op that has not completed this long after its latency origin
    /// has failed.
    pub deadline_ns: u64,
    /// An open-loop op due on a connection with this many ops already
    /// outstanding is refused (counted failed) instead of queued.
    pub max_outstanding: usize,
    /// Record spans around every client call.
    pub traced: bool,
    /// Highest tag submitted before this window (prefill, warm-up): the
    /// starting provenance bound.
    pub tag_floor: u64,
}

/// Everything one driven window produced.
#[derive(Default)]
pub struct Outcome {
    pub recs: Vec<OpRec>,
    /// Output-check failures (first few kept verbatim).
    pub violations: Vec<String>,
    pub violation_count: usize,
    /// `(counter index, old value)` of every completed `Faa`.
    pub faa_olds: Vec<(u64, u64)>,
    /// Generator lateness per open-loop op, ns.
    pub late_ns: Vec<u64>,
    /// Mean of (outstanding on both connections) over generator ticks.
    pub outstanding_mean: f64,
    /// Connection errors, if any.
    pub errors: Vec<String>,
    pub tracer: Tracer,
    /// Generator-thread CPU per submitted op.
    pub gen_cpu_ns_per_op: f64,
    /// Window offset at which the drain gave up or finished.
    pub end_ns: u64,
}

impl Outcome {
    fn violation(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < 8 {
            self.violations.push(msg);
        }
    }
}

/// Session side of one connection.
struct Conn<'a> {
    s: &'a mut RemoteSession,
    /// `(session seq, rec index, op)` in submit order.
    inflight: VecDeque<(u64, usize, Op)>,
    broken: bool,
    dirty: bool,
}

/// Highest tag among submitted writes (the provenance bound).
fn tag_of(op: &Op) -> u64 {
    match op {
        Op::Write { val, .. } | Op::Release { val, .. } if val.len() == 16 => {
            u64::from_le_bytes(val.as_bytes()[8..].try_into().expect("8 bytes"))
        }
        _ => 0,
    }
}

struct State<'a> {
    conns: Vec<Conn<'a>>,
    out: Outcome,
    t0: Instant,
    max_tag: u64,
    submits: u64,
}

impl<'a> State<'a> {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn submit(&mut self, c: usize, op: Op, due_ns: u64, refuse_at: usize) {
        let class = Class::of(&op);
        let idx = self.out.recs.len();
        self.out.recs.push(OpRec { class, conn: c as u8, due_ns, done_ns: NOT_DONE, server_ns: 0 });
        if self.conns[c].broken || self.conns[c].inflight.len() >= refuse_at {
            return; // refused: stays NOT_DONE, so it counts as failed
        }
        self.max_tag = self.max_tag.max(tag_of(&op));
        let traced = self.out.tracer.enabled();
        let s0 = if traced { self.now() } else { 0 };
        let conn = &mut self.conns[c];
        match conn.s.submit(op.clone()) {
            Ok(seq) => {
                conn.inflight.push_back((seq, idx, op));
                conn.dirty = true;
            }
            Err(e) => {
                conn.broken = true;
                self.out.errors.push(format!("conn {c} submit: {e}"));
            }
        }
        if traced {
            let t1 = self.now();
            let seq = self.conns[c].inflight.back().map_or(NO_SEQ, |x| x.0);
            self.out.tracer.span(Kind::Submit, c, seq, s0, t1);
        }
        self.submits += 1;
    }

    fn flush(&mut self) {
        for c in 0..self.conns.len() {
            if !self.conns[c].dirty || self.conns[c].broken {
                continue;
            }
            let traced = self.out.tracer.enabled();
            let s0 = if traced { self.now() } else { 0 };
            if let Err(e) = self.conns[c].s.flush() {
                self.conns[c].broken = true;
                self.out.errors.push(format!("conn {c} flush: {e}"));
            }
            self.conns[c].dirty = false;
            if traced {
                let t1 = self.now();
                self.out.tracer.span(Kind::Flush, c, NO_SEQ, s0, t1);
            }
        }
    }

    /// Retire every completion that has landed. Returns how many did.
    fn poll(&mut self) -> usize {
        let mut got = 0;
        for c in 0..self.conns.len() {
            while !self.conns[c].broken {
                let traced = self.out.tracer.enabled();
                let s0 = if traced { self.now() } else { 0 };
                let r = self.conns[c].s.poll_completion();
                let seq = match &r {
                    Ok(Some((comp, _))) => comp.op_id.seq,
                    _ => NO_SEQ,
                };
                if traced {
                    let t1 = self.now();
                    self.out.tracer.span(Kind::Poll, c, seq, s0, t1);
                }
                match r {
                    Ok(Some((comp, at))) => {
                        self.retire(c, comp, at);
                        got += 1;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        self.conns[c].broken = true;
                        self.out.errors.push(format!("conn {c} poll: {e}"));
                    }
                }
            }
        }
        got
    }

    fn retire(&mut self, c: usize, comp: Completion, at: Instant) {
        let Some((seq, idx, op)) = self.conns[c].inflight.pop_front() else {
            self.out.violation(format!("conn {c}: completion with nothing in flight"));
            return;
        };
        if comp.op_id.seq != seq {
            self.out
                .violation(format!("conn {c}: completion seq {} for seq {seq}", comp.op_id.seq));
        }
        let rec = &mut self.out.recs[idx];
        rec.done_ns = at.saturating_duration_since(self.t0).as_nanos() as u64;
        rec.server_ns = comp.completed_at.saturating_sub(comp.invoked_at);
        let key = op.key();
        let bad = match (&op, &comp.output) {
            (Op::Read { .. } | Op::Acquire { .. }, OpOutput::Value(v)) => {
                check_value(key, v, self.max_tag).err()
            }
            (Op::Write { .. } | Op::Release { .. }, OpOutput::Done) => None,
            (Op::Faa { .. }, OpOutput::Faa(old)) => {
                self.out.faa_olds.push((key.0 - HOT_BASE, *old));
                None
            }
            (Op::CasStrong { .. }, OpOutput::Cas { ok: true, .. }) => None,
            (op, out) => Some(format!("{op:?} completed with {out:?}")),
        };
        if let Some(msg) = bad {
            self.out.violation(msg);
        }
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    fn nap(&mut self, d: Duration) {
        let traced = self.out.tracer.enabled();
        let s0 = if traced { self.now() } else { 0 };
        // Sub-millisecond pacing: `nanosleep` under the 1 ns timer slack
        // set in `drive`. `RemoteSession::wait_event` rounds every wait up
        // to a whole millisecond, which turns a 15k ops/s schedule into
        // bursts.
        std::thread::sleep(d);
        if traced {
            let t1 = self.now();
            self.out.tracer.span(Kind::Wait, 0, NO_SEQ, s0, t1);
        }
    }
}

/// Drive `load` over `sessions` from `t0` until every op completed or
/// missed its deadline.
pub fn drive(sessions: &mut [RemoteSession], load: Load, t0: Instant, cfg: &DriveCfg) -> Outcome {
    host::tighten_timer_slack();
    let expected = match &load {
        Load::Open(plan) => plan.len(),
        Load::Closed { .. } => 1 << 16,
    };
    let mut st = State {
        conns: sessions
            .iter_mut()
            .map(|s| Conn { s, inflight: VecDeque::new(), broken: false, dirty: false })
            .collect(),
        out: Outcome {
            recs: Vec::with_capacity(expected),
            late_ns: Vec::with_capacity(expected),
            tracer: Tracer::new(cfg.traced, expected * 8),
            ..Outcome::default()
        },
        t0,
        max_tag: cfg.tag_floor,
        submits: 0,
    };
    let cpu0 = host::thread_cpu_us();
    let mut outstanding_sum = 0.0;
    let mut ticks = 0u64;
    let mut next = 0usize;
    let last_due = match &load {
        Load::Open(plan) => plan.last().map_or(0, |p| p.at_ns),
        Load::Closed { until_ns, .. } => *until_ns,
    };
    let mut load = load;
    loop {
        let now = st.now();
        st.out.tracer.tick(now);
        let sending = match &mut load {
            Load::Open(plan) => {
                while next < plan.len() && plan[next].at_ns <= now {
                    let p = &plan[next];
                    st.out.late_ns.push(now - p.at_ns);
                    st.submit(p.conn, p.op.clone(), p.at_ns, cfg.max_outstanding);
                    next += 1;
                }
                next < plan.len()
            }
            Load::Closed { gen, window, until_ns } => {
                if now < *until_ns {
                    for c in 0..st.conns.len() {
                        while !st.conns[c].broken && st.conns[c].inflight.len() < *window {
                            let op = gen.op();
                            let due = st.now();
                            st.submit(c, op, due, usize::MAX);
                        }
                    }
                }
                now < *until_ns
            }
        };
        st.flush();
        let got = st.poll();
        outstanding_sum += st.outstanding() as f64;
        ticks += 1;
        let end = st.now();
        let live = st.conns.iter().any(|c| !c.broken && !c.inflight.is_empty());
        if !sending && (!live || end > last_due + cfg.deadline_ns) {
            st.out.tracer.end_tick(end);
            st.out.end_ns = end;
            break;
        }
        match &load {
            Load::Open(plan) if next < plan.len() => {
                let wait = plan[next].at_ns.saturating_sub(st.now());
                if wait > 0 {
                    st.nap(Duration::from_nanos(wait).min(MAX_NAP));
                }
            }
            _ if got == 0 => st.nap(IDLE_NAP),
            _ => {}
        }
        let end = st.now();
        st.out.tracer.end_tick(end);
    }
    let cpu = host::thread_cpu_us() - cpu0;
    st.out.gen_cpu_ns_per_op = crate::stats::ratio(cpu * 1e3, st.submits as f64);
    st.out.outstanding_mean = crate::stats::ratio(outstanding_sum, ticks as f64);
    st.out
}
