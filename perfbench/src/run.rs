//! One benchmark run: `WINDOWS` times over, set up a fresh 3-node loopback
//! cluster, drive a `seconds / WINDOWS` window from the generator thread
//! while this thread plays operator (failover events, counter snapshots),
//! check every output and tear down. Each end-to-end metric is the median
//! of its per-window values.
//!
//! Medians over windows are what make the figures repeat on a small
//! shared host. There, bursts of vCPU steal stall every thread for
//! milliseconds; with the default 1 ms release timeout a burst also trips
//! false-positive timeouts, epoch bumps and slow-path accesses, so a
//! window that catches one runs 10-40% slower throughout. A median over
//! eight windows reports the typical window.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use kite::api::Op;
use kite::ProtocolMode;
use kite_common::{ClusterConfig, Key, Lc, Membership, NodeId, NodeSet, Val, MEMBERSHIP_KEY};
use kite_metrics::HistogramSnapshot;
use kite_net::{NodeConfig, NodeRuntime, RemoteSession};

use crate::counts::Counts;
use crate::driver::{drive, DriveCfg, Load, OpRec, Outcome};
use crate::host::{self, Host};
use crate::replay;
use crate::stats::{median, quantile, quantile_with_failures, ratio, sorted};
use crate::workload::{open_schedule, tagged, Class, Drive, Gen, Planned, Spec, HOT_BASE};

/// Fresh clusters per run, each measured for `seconds / WINDOWS`.
pub const WINDOWS: usize = 8;
/// Warm-up driven after the prefill, before the first timed op.
const WARMUP: Duration = Duration::from_millis(500);
/// Per-op deadline: an op not completed this long after its latency
/// origin has failed.
pub const DEADLINE: Duration = Duration::from_secs(1);
/// Open-loop refusal threshold per connection (bounds a wedged session).
const MAX_OUTSTANDING: usize = 4096;
/// In-flight ops per connection while prefilling.
const PREFILL_WINDOW: usize = 256;
/// How long the stores get to agree after the load stops.
const QUIESCE: Duration = Duration::from_secs(10);
/// How long the relaunched learner gets to catch up after the window.
const CATCHUP_GRACE: Duration = Duration::from_secs(10);
/// Generated ops replayed through single layers.
const REPLAY_OPS: usize = 20_000;
/// Scratch space for WALs and span files, relative to the working
/// directory.
pub const SCRATCH: &str = ".perfbench";

/// A named measurement with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

fn metric(name: &str, unit: &'static str, value: f64, samples: u64) -> Metric {
    // An empty sample has no quantile; report it as 0 with n=0.
    let value = if value.is_nan() { 0.0 } else { value };
    Metric { name: name.to_string(), unit, value, samples }
}

/// Output check result.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub struct Report {
    pub host: Host,
    /// End-to-end metrics gated by the benchmark contract.
    pub e2e: Vec<Metric>,
    /// End-to-end metrics printed but not gated (failures, failover).
    pub e2e_extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    pub reconcile: Option<String>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed ops per connection (node 0, node 1).
    pub failed_by_conn: [u64; 2],
    pub errors: Vec<String>,
    pub span_file: Option<PathBuf>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// A set-up cluster with its two client connections.
struct Env {
    cfg: ClusterConfig,
    nodes: Vec<Option<NodeRuntime>>,
    peers: Vec<String>,
    sessions: Vec<RemoteSession>,
    wal_dir: Option<PathBuf>,
    /// The membership value before any change (the add-learner CAS's
    /// expected value).
    membership: Val,
    warm: Outcome,
}

impl Env {
    fn live(&self) -> impl Iterator<Item = &NodeRuntime> {
        self.nodes.iter().flatten()
    }

    fn teardown(mut self) {
        // Close the client connections first, so a wedged session holds
        // nothing the nodes wait on, then stop every node.
        self.sessions.clear();
        for n in self.nodes.drain(..).flatten() {
            n.shutdown();
        }
        if let Some(d) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

fn cluster_cfg(spec: &Spec, wal_dir: Option<&Path>) -> ClusterConfig {
    // Data keys, hot counters and the membership key, with headroom.
    let keys = (spec.keys + spec.hot_keys) as usize + 64;
    let mut cfg = ClusterConfig::small()
        .keys(keys)
        .sessions_per_worker(2)
        .ops_per_tick(16)
        .release_timeout_ns(spec.release_timeout_ns);
    if spec.failover {
        // The learner catch-up settings of the repository's join bench:
        // a 100k-key store sweeps in ~0.5 s instead of ~10 s.
        cfg = cfg
            .anti_entropy_interval_ns(2_000_000)
            .anti_entropy_chunk(1024)
            .anti_entropy_keepalive_ns(5_000_000);
    }
    if let Some(d) = wal_dir {
        cfg = cfg.wal(true).wal_dir(d.to_str().expect("utf-8 scratch path"));
    }
    cfg
}

/// Run `ops` (connection, op) through the sessions, `PREFILL_WINDOW` in
/// flight on each, failing on any error.
fn pipeline(
    sessions: &mut [RemoteSession],
    ops: impl Iterator<Item = (usize, Op)>,
) -> Result<(), String> {
    for (c, op) in ops {
        while sessions[c].outstanding() >= PREFILL_WINDOW {
            sessions[c].next_completion().map_err(|e| format!("prefill: {e}"))?;
        }
        sessions[c].submit(op).map_err(|e| format!("prefill submit: {e}"))?;
    }
    for s in sessions.iter_mut() {
        s.flush().map_err(|e| format!("prefill flush: {e}"))?;
        while s.outstanding() > 0 {
            s.next_completion().map_err(|e| format!("prefill drain: {e}"))?;
        }
    }
    Ok(())
}

/// The first tag the generator hands out: prefill used `1..=prefill`,
/// and one release per connection follows it.
fn first_tag(spec: &Spec) -> u64 {
    spec.prefill + 3
}

/// Launch, connect, prefill and warm up (open loop: `warm_plan`; closed
/// loop: `gen` for [`WARMUP`]).
fn setup(
    spec: &'static Spec,
    round: usize,
    gen: &mut Gen,
    warm_plan: &[Planned],
) -> Result<Env, String> {
    let wal_dir =
        spec.wal.then(|| Path::new(SCRATCH).join(format!("wal-{}-{round}", std::process::id())));
    if let Some(d) = &wal_dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let cfg = cluster_cfg(spec, wal_dir.as_deref());
    let nodes = kite_net::launch_local_cluster(cfg.clone(), ProtocolMode::Kite)
        .map_err(|e| format!("launch: {e}"))?;
    let peers: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let sessions = (0..2)
        .map(|n| RemoteSession::connect(&peers[n], 0).map_err(|e| format!("connect node {n}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut env = Env {
        cfg,
        nodes: nodes.into_iter().map(Some).collect(),
        peers,
        sessions,
        wal_dir,
        membership: Val::EMPTY,
        warm: Outcome::default(),
    };

    // Prefill every data key once, then a release on each connection so
    // every replica holds the prefill before the clock starts.
    let fill = (0..spec.prefill)
        .map(|k| ((k & 1) as usize, Op::Write { key: Key(k), val: tagged(Key(k), k + 1) }));
    let fence = (0..2u64).map(|c| {
        let key = Key(c);
        (c as usize, Op::Release { key, val: tagged(key, spec.prefill + 1 + c) })
    });
    pipeline(&mut env.sessions, fill.chain(fence))?;
    if spec.failover {
        env.membership =
            env.sessions[0].acquire(MEMBERSHIP_KEY).map_err(|e| format!("read membership: {e}"))?;
    }

    let dcfg = DriveCfg {
        deadline_ns: DEADLINE.as_nanos() as u64,
        max_outstanding: MAX_OUTSTANDING,
        traced: false,
        tag_floor: first_tag(spec) - 1,
    };
    let load = match spec.drive {
        Drive::Open { .. } => Load::Open(warm_plan),
        Drive::Closed { window } => {
            Load::Closed { gen, window, until_ns: WARMUP.as_nanos() as u64 }
        }
    };
    env.warm = drive(&mut env.sessions, load, Instant::now(), &dcfg);
    Ok(env)
}

/// What the operator thread saw during the window.
#[derive(Default)]
struct Control {
    /// Counters over the window.
    counts: Counts,
    wal_commit: HistogramSnapshot,
    wal_lag_max: u64,
    kill_ns: Option<u64>,
    relaunch_ns: Option<u64>,
    catchup: Option<Duration>,
    catchup_keys: u64,
    sync_bytes: u64,
    errors: Vec<String>,
}

/// Per-node counter bases for differencing across a node replacement.
struct Ledger {
    base: Vec<Counts>,
    retired: Counts,
}

impl Ledger {
    fn open(env: &Env) -> Ledger {
        Ledger {
            base: env
                .nodes
                .iter()
                .map(|n| n.as_ref().map(Counts::of).unwrap_or_default())
                .collect(),
            retired: Counts::default(),
        }
    }

    fn total(&self, env: &Env) -> Counts {
        env.nodes
            .iter()
            .zip(&self.base)
            .filter_map(|(n, b)| n.as_ref().map(|n| Counts::of(n).since(*b)))
            .fold(self.retired, Counts::plus)
    }
}

fn survivor_image(env: &Env) -> HashMap<u64, Lc> {
    let mut want: HashMap<u64, Lc> = HashMap::new();
    for n in env.live() {
        n.shared().store.for_each_entry(|k, lc, _| {
            let e = want.entry(k.0).or_insert(lc);
            *e = (*e).max(lc);
        });
    }
    want
}

fn ae_bytes(env: &Env) -> u64 {
    env.live()
        .map(|n| n.counters().ae_repair_bytes.get() + n.counters().ae_digest_bytes.get())
        .sum()
}

/// The operator: kill and relaunch node 2 on `failover`, watch the
/// learner catch up, sample WAL lag, and difference the counters.
fn operate(
    env: &mut Env,
    spec: &Spec,
    t0: Instant,
    window: Duration,
    done: &dyn Fn() -> bool,
) -> Control {
    let mut ctl = Control::default();
    let mut ledger = Ledger::open(env);
    for n in env.live() {
        if let Some(w) = n.wal() {
            w.commit_latency().clear();
        }
    }
    let mut pending: Vec<(Key, Lc)> = Vec::new();
    let mut relaunch_at = None;
    let mut bytes_at_relaunch = 0;
    loop {
        let now = t0.elapsed();
        if spec.failover && ctl.kill_ns.is_none() && now >= window / 3 {
            let victim = env.nodes[2].take().expect("node 2 runs until the kill");
            ledger.retired = ledger.retired.plus(Counts::of(&victim).since(ledger.base[2]));
            ledger.base[2] = Counts::default();
            ctl.kill_ns = Some(t0.elapsed().as_nanos() as u64);
            victim.shutdown();
        }
        if spec.failover && ctl.relaunch_ns.is_none() && now >= window / 2 {
            pending = survivor_image(env).into_iter().map(|(k, lc)| (Key(k), lc)).collect();
            ctl.catchup_keys = pending.len() as u64;
            bytes_at_relaunch = ae_bytes(env);
            let cfg =
                NodeConfig::new(env.cfg.clone(), ProtocolMode::Kite, NodeId(2), env.peers.clone());
            relaunch_at = Some(Instant::now());
            ctl.relaunch_ns = Some(t0.elapsed().as_nanos() as u64);
            match NodeRuntime::launch(cfg) {
                Ok(n) => env.nodes[2] = Some(n),
                Err(e) => ctl.errors.push(format!("relaunch node 2: {e}")),
            }
        }
        if let (Some(at), None, Some(learner)) = (relaunch_at, ctl.catchup, env.nodes[2].as_ref()) {
            let store = &learner.shared().store;
            pending.retain(|(k, lc)| store.probe_lc(*k).is_none_or(|have| have < *lc));
            if pending.is_empty() {
                ctl.catchup = Some(at.elapsed());
                ctl.sync_bytes = ae_bytes(env) - bytes_at_relaunch;
            }
        }
        for n in env.live() {
            if let Some(w) = n.wal() {
                ctl.wal_lag_max = ctl.wal_lag_max.max(w.stats().lag_bytes);
            }
        }
        let waiting_catchup =
            relaunch_at.is_some() && ctl.catchup.is_none() && now < window + CATCHUP_GRACE;
        if done() && !waiting_catchup {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    ctl.counts = ledger.total(env);
    for n in env.live() {
        if let Some(w) = n.wal() {
            ctl.wal_commit.merge(&w.commit_latency().snapshot());
        }
    }
    ctl
}

/// Every live replica's written entries, sorted by key.
fn image(n: &NodeRuntime) -> Vec<(u64, Lc, Val)> {
    let mut v = Vec::new();
    n.shared().store.for_each_entry(|k, lc, val| v.push((k.0, lc, val.clone())));
    v.sort_by_key(|e| e.0);
    v
}

/// Wait for every live replica to hold the same entries; the number of
/// keys on which some replica still differs from node 0.
fn converge(env: &Env) -> usize {
    let deadline = Instant::now() + QUIESCE;
    loop {
        let images: Vec<_> = env.live().map(image).collect();
        let reference: HashMap<u64, (Lc, &Val)> =
            images[0].iter().map(|(k, lc, v)| (*k, (*lc, v))).collect();
        let differing = images[1..]
            .iter()
            .map(|img| {
                let extra = img.len().abs_diff(reference.len());
                extra + img.iter().filter(|(k, lc, v)| reference.get(k) != Some(&(*lc, v))).count()
            })
            .max()
            .unwrap_or(0);
        if differing == 0 || Instant::now() >= deadline {
            return differing;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// `Faa` check: old values per counter distinct and below the final
/// counter, which equals the completed `Faa`s (plus any that failed
/// without an answer, which may or may not have applied).
fn check_faa(
    env: &Env,
    spec: &Spec,
    olds: &[(u64, u64)],
    unanswered: u64,
) -> Result<String, String> {
    let store = &env.live().next().expect("a live node").shared().store;
    let mut per: Vec<Vec<u64>> = vec![Vec::new(); spec.hot_keys as usize];
    for &(i, old) in olds {
        per[i as usize].push(old);
    }
    for (i, mut o) in per.into_iter().enumerate() {
        let fin = store.view(Key(HOT_BASE + i as u64)).val.as_u64();
        o.sort_unstable();
        if let Some(w) = o.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("counter {i}: old value {} returned twice", w[0]));
        }
        let n = o.len() as u64;
        if fin < n || fin > n + unanswered || o.last().is_some_and(|&m| m >= fin) {
            return Err(format!(
                "counter {i}: final {fin} after {n} completed faa ({unanswered} unanswered)"
            ));
        }
    }
    Ok(format!("{} faa over {} counters", olds.len(), spec.hot_keys))
}

fn failed(r: &OpRec) -> bool {
    r.latency_ns().is_none_or(|l| l > DEADLINE.as_nanos() as u64)
}

/// Latencies (ms) of the completed ops among `recs`, sorted, and how many
/// failed.
fn latencies<'a>(recs: impl Iterator<Item = &'a OpRec>) -> (Vec<f64>, usize) {
    let mut ok = Vec::new();
    let mut bad = 0;
    for r in recs {
        if failed(r) {
            bad += 1;
        } else {
            ok.push(r.latency_ns().expect("not failed") as f64 / 1e6);
        }
    }
    (sorted(ok), bad)
}

/// Longest gap (ms) between consecutive completions at or after `from_ns`.
fn longest_gap_ms(recs: &[OpRec], from_ns: u64, until_ns: u64) -> (f64, u64) {
    let mut t: Vec<u64> = recs
        .iter()
        .filter_map(|r| r.latency_ns().map(|_| r.done_ns))
        .filter(|&d| d >= from_ns)
        .collect();
    t.sort_unstable();
    let n = t.len() as u64;
    t.insert(0, from_ns);
    t.push(until_ns.max(*t.last().expect("non-empty")));
    let gap = t.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    (gap as f64 / 1e6, n)
}

/// One measured window on one freshly set-up cluster.
struct Window {
    setup_s: f64,
    window_ns: u64,
    out: Outcome,
    ctl: Control,
    /// Process CPU over the window, µs.
    cpu_us: f64,
    checks: Vec<Check>,
}

impl Window {
    fn completed(&self) -> u64 {
        self.out.recs.iter().filter(|r| r.latency_ns().is_some()).count() as u64
    }
}

/// Set up a fresh cluster, drive one window of `each` on it, check its
/// outputs and tear it down.
fn measure(
    spec: &'static Spec,
    seed: u64,
    round: usize,
    each: Duration,
    traced: bool,
) -> Result<Window, String> {
    let window_ns = each.as_nanos() as u64;
    // Each set-up gets its own seeded stream; warm-up and window draw
    // from it in turn, so tags continue from one to the other.
    let mut gen =
        Gen::new(spec, seed.wrapping_mul(0x9E37_79B9).wrapping_add(round as u64), first_tag(spec));
    let warm_plan = match spec.drive {
        Drive::Open { rate } => open_schedule(&mut gen, rate, WARMUP.as_secs_f64()),
        Drive::Closed { .. } => Vec::new(),
    };
    let t = Instant::now();
    let mut env = setup(spec, round, &mut gen, &warm_plan)?;
    let setup_s = t.elapsed().as_secs_f64();

    let tag_floor = gen.next_tag() - 1;
    let mut plan = match spec.drive {
        Drive::Open { rate } => open_schedule(&mut gen, rate, each.as_secs_f64()),
        Drive::Closed { .. } => Vec::new(),
    };
    if spec.failover {
        // The add-learner CAS rides connection 0 just after the kill,
        // expecting the membership value read at set-up.
        let at_ns = window_ns / 3 + 50_000_000;
        let m0 = Membership { epoch: 0, voters: NodeSet::all(3), learners: NodeSet::EMPTY };
        let op = Op::CasStrong {
            key: MEMBERSHIP_KEY,
            expect: env.membership.clone(),
            new: m0.with_learner(NodeId(2)).to_val(),
        };
        plan.insert(plan.partition_point(|p| p.at_ns <= at_ns), Planned { at_ns, conn: 0, op });
    }

    let dcfg = DriveCfg {
        deadline_ns: DEADLINE.as_nanos() as u64,
        max_outstanding: MAX_OUTSTANDING,
        traced,
        tag_floor,
    };
    let mut sessions = std::mem::take(&mut env.sessions);
    let finished = AtomicBool::new(false);
    let cpu0 = host::process_cpu_us();
    let t0 = Instant::now();
    let (out, ctl, cpu_us) = std::thread::scope(|sc| {
        let h = std::thread::Builder::new()
            .name("perfbench-gen".into())
            .spawn_scoped(sc, || {
                let load = match spec.drive {
                    Drive::Open { .. } => Load::Open(&plan),
                    Drive::Closed { window } => {
                        Load::Closed { gen: &mut gen, window, until_ns: window_ns }
                    }
                };
                let out = drive(&mut sessions, load, t0, &dcfg);
                // ordering: Release pairs with the operator's Acquire load;
                // the join below hands over the outcome itself.
                finished.store(true, Ordering::Release);
                out
            })
            .expect("spawn generator");
        let ctl = operate(&mut env, spec, t0, each, &|| finished.load(Ordering::Acquire));
        let cpu_us = host::process_cpu_us() - cpu0;
        (h.join().expect("generator thread"), ctl, cpu_us)
    });
    env.sessions = sessions;

    let mut checks = Vec::new();
    let violations = out.violation_count + env.warm.violation_count;
    let mut detail: Vec<String> =
        env.warm.violations.iter().chain(&out.violations).take(4).cloned().collect();
    if detail.is_empty() {
        let checked =
            env.warm.recs.iter().chain(&out.recs).filter(|r| r.latency_ns().is_some()).count();
        detail.push(format!("{checked} completions checked"));
    }
    checks.push(Check { name: "value_provenance", ok: violations == 0, detail: detail.join("; ") });
    let differing = converge(&env);
    checks.push(Check {
        name: "replicas_agree",
        ok: differing == 0,
        detail: format!("{differing} keys differ across {} replicas", env.live().count()),
    });
    if spec.hot_keys > 0 {
        let olds: Vec<(u64, u64)> =
            env.warm.faa_olds.iter().chain(&out.faa_olds).copied().collect();
        let unanswered = env
            .warm
            .recs
            .iter()
            .chain(&out.recs)
            .filter(|r| r.class == Class::Rmw && r.latency_ns().is_none())
            .count() as u64;
        let r = check_faa(&env, spec, &olds, unanswered);
        checks.push(Check { name: "faa_counters", ok: r.is_ok(), detail: r.unwrap_or_else(|e| e) });
    }
    if spec.failover {
        checks.push(Check {
            name: "learner_caught_up",
            ok: ctl.catchup.is_some() && env.nodes[2].is_some(),
            detail: match ctl.catchup {
                Some(d) => format!(
                    "learner held all {} survivor values after {:.3} s",
                    ctl.catchup_keys,
                    d.as_secs_f64()
                ),
                None => format!(
                    "learner still missing values {} s after the window",
                    CATCHUP_GRACE.as_secs()
                ),
            },
        });
    }
    env.teardown();
    Ok(Window { setup_s, window_ns, out, ctl, cpu_us, checks })
}

/// Fold per-window checks: a check fails if it failed in any window.
fn fold_checks(wins: &[Window]) -> Vec<Check> {
    let mut all: Vec<Check> = Vec::new();
    for (i, w) in wins.iter().enumerate() {
        for c in &w.checks {
            match all.iter_mut().find(|a| a.name == c.name) {
                Some(a) if a.ok && !c.ok => {
                    a.ok = false;
                    a.detail = format!("window {i}: {}", c.detail);
                }
                Some(a) if a.ok => a.detail = format!("{} windows; last: {}", i + 1, c.detail),
                Some(_) => {}
                None => {
                    all.push(Check { detail: format!("window {i}: {}", c.detail), ..c.clone() })
                }
            }
        }
    }
    all
}

/// End-to-end metrics over `wins`. The gated ones are the median of
/// their per-window values. The printed-only ones pool every window; the
/// latencies are among them because on a small shared host vCPU-steal
/// bursts move p99 2-10x and p50 by 20-50% between runs, past the largest
/// bound a gated metric may have.
fn end_to_end(spec: &Spec, wins: &[&Window]) -> (Vec<Metric>, Vec<Metric>) {
    let recs = || wins.iter().flat_map(|w| w.out.recs.iter());
    let attempted = recs().count() as u64;
    let n_failed = recs().filter(|r| failed(r)).count() as u64;
    let completed: u64 = wins.iter().map(|w| w.completed()).sum();
    let per_window =
        |f: &dyn Fn(&Window) -> f64| median(&wins.iter().map(|w| f(w)).collect::<Vec<_>>());
    let (lat, bad) = latencies(recs());
    let n = wins.len() as u64;
    let e2e = vec![
        metric("setup_s", "s", per_window(&|w| w.setup_s), n),
        metric(
            "ops_per_s",
            "1/s",
            per_window(&|w| {
                let done = w.out.recs.iter().filter(|r| !failed(r) && r.done_ns <= w.window_ns);
                done.count() as f64 / (w.window_ns as f64 / 1e9)
            }),
            completed,
        ),
        metric(
            "cpu_us_per_op",
            "us",
            per_window(&|w| ratio(w.cpu_us, w.completed() as f64)),
            completed,
        ),
    ];
    let mut extra = vec![
        metric("p50_ms", "ms", quantile_with_failures(&lat, bad, 0.50), attempted),
        metric("p99_ms", "ms", quantile_with_failures(&lat, bad, 0.99), attempted),
        metric("failed_frac", "1", ratio(n_failed as f64, attempted as f64), attempted),
    ];
    if spec.failover {
        extra.push(metric(
            "unavail_ms",
            "ms",
            per_window(&|w| {
                longest_gap_ms(&w.out.recs, w.ctl.kill_ns.unwrap_or(w.window_ns), w.window_ns).0
            }),
            wins.len() as u64,
        ));
        let fault = || {
            wins.iter().flat_map(|w| {
                let (kill, relaunch) = (
                    w.ctl.kill_ns.unwrap_or(w.window_ns),
                    w.ctl.relaunch_ns.unwrap_or(w.window_ns),
                );
                w.out.recs.iter().filter(move |r| r.due_ns >= kill && r.due_ns < relaunch)
            })
        };
        let (flat, fbad) = latencies(fault());
        extra.push(metric(
            "fault_p99_ms",
            "ms",
            quantile_with_failures(&flat, fbad, 0.99),
            (flat.len() + fbad) as u64,
        ));
        extra.push(metric(
            "catchup_s",
            "s",
            per_window(&|w| w.ctl.catchup.map_or(f64::INFINITY, |d| d.as_secs_f64())),
            wins.len() as u64,
        ));
    }
    (e2e, extra)
}

/// Run one workload end to end: [`WINDOWS`] fresh clusters, each measured
/// for `secs / WINDOWS`. A traced run traces the last window only and
/// reports per-layer metrics; the untraced windows before it are its
/// baseline.
pub fn run(spec: &'static Spec, seed: u64, secs: u64, trace: bool) -> Result<Report, String> {
    let host = Host::probe();
    let each = Duration::from_secs_f64(secs as f64 / WINDOWS as f64);
    let wins = (0..WINDOWS)
        .map(|round| measure(spec, seed, round, each, trace && round == WINDOWS - 1))
        .collect::<Result<Vec<_>, _>>()?;
    let checks = fold_checks(&wins);
    let attempted = wins.iter().map(|w| w.out.recs.len() as u64).sum();
    let failed_ops = wins.iter().flat_map(|w| &w.out.recs).filter(|r| failed(r)).count() as u64;
    let mut errors: Vec<String> =
        wins.iter().flat_map(|w| w.out.errors.iter().chain(&w.ctl.errors)).cloned().collect();
    errors.dedup();
    let mut report = Report {
        host,
        e2e: Vec::new(),
        e2e_extra: Vec::new(),
        layers: Vec::new(),
        reconcile: None,
        checks,
        attempted,
        failed: failed_ops,
        failed_by_conn: [0, 1].map(|c| {
            wins.iter().flat_map(|w| &w.out.recs).filter(|r| r.conn == c && failed(r)).count()
                as u64
        }),
        errors,
        span_file: None,
    };
    if trace {
        let (traced, base) = wins.split_last().expect("WINDOWS > 1");
        let base: Vec<&Window> = base.iter().collect();
        let (mut e2e, mut extra) = end_to_end(spec, &base);
        // A traced run prints its baseline's end-to-end figures but
        // reports only per-layer metrics.
        report.e2e_extra.append(&mut e2e);
        report.e2e_extra.append(&mut extra);
        layers(&mut report, spec, seed, traced, &base);
        let path = Path::new(SCRATCH).join(format!("trace-{}.tsv", spec.name));
        traced.out.tracer.write_tsv(&path).map_err(|e| format!("write spans: {e}"))?;
        report.span_file = Some(path);
    } else {
        let all: Vec<&Window> = wins.iter().collect();
        (report.e2e, report.e2e_extra) = end_to_end(spec, &all);
    }
    Ok(report)
}

/// Per-layer metrics from the traced window, plus the replay and the
/// reconciliation line against the untraced `base` windows.
fn layers(report: &mut Report, spec: &'static Spec, seed: u64, w: &Window, base: &[&Window]) {
    let (out, ctl) = (&w.out, &w.ctl);
    let done: Vec<&OpRec> = out.recs.iter().filter(|r| r.latency_ns().is_some()).collect();
    let n = done.len() as f64;
    let nn = done.len() as u64;
    let d = ctl.counts;
    let per_op = |x: u64| ratio(x as f64, n);
    let us = |v: Vec<f64>| sorted(v.into_iter().map(|x| x / 1e3).collect());

    let late = us(out.late_ns.iter().map(|&x| x as f64).collect());
    let server = us(done.iter().map(|r| r.server_ns as f64).collect());
    let server_rmw =
        us(done.iter().filter(|r| r.class == Class::Rmw).map(|r| r.server_ns as f64).collect());
    let outside = us(done
        .iter()
        .map(|r| r.latency_ns().expect("done").saturating_sub(r.server_ns) as f64)
        .collect());
    let reads = done.iter().filter(|r| r.class == Class::Read).count() as f64;
    let single_acks = d.acks.saturating_sub(d.acks_batches);
    let secs = w.window_ns as f64 / 1e9;
    let sum = out.tracer.summary(out.end_ns);
    let spans = sum.spans as u64;

    // Replay this workload's generated ops through single layers.
    let mut gen = Gen::new(spec, seed, first_tag(spec));
    let ops: Vec<Op> = (0..REPLAY_OPS).map(|_| gen.op()).collect();
    let lat_ns: Vec<u64> = done.iter().map(|r| r.latency_ns().expect("done")).collect();
    let per_env = ratio(d.msgs as f64, d.envelopes as f64);
    let scratch = Path::new(SCRATCH).join(format!("replay-wal-{}", std::process::id()));
    let c = replay::replay(&ops, per_env, &lat_ns, &scratch);
    let r = REPLAY_OPS as u64;

    // Generator CPU per op, traced against the untraced windows.
    let base_gen = ratio(
        base.iter().map(|b| b.out.gen_cpu_ns_per_op * b.out.recs.len() as f64).sum(),
        base.iter().map(|b| b.out.recs.len() as f64).sum(),
    );
    let m = metric;
    report.layers = vec![
        m("loadgen.late_p50_us", "us", quantile(&late, 0.50), late.len() as u64),
        m("loadgen.late_p99_us", "us", quantile(&late, 0.99), late.len() as u64),
        m("loadgen.self_ns_per_op", "ns", sum.loadgen_self_ns_per_op, spans),
        m("client.submit_ns_per_op", "ns", sum.submit_ns_per_op, spans),
        m("client.flush_ns_per_call", "ns", sum.flush_ns_per_call, spans),
        m("client.poll_ns_per_call", "ns", sum.poll_ns_per_call, spans),
        m("client.wait_frac", "1", sum.wait_frac, spans),
        m("client.outstanding_mean", "ops", out.outstanding_mean, spans),
        m("core.server_p50_us", "us", quantile(&server, 0.50), server.len() as u64),
        m("core.server_p99_us", "us", quantile(&server, 0.99), server.len() as u64),
        m("core.server_rmw_p50_us", "us", quantile(&server_rmw, 0.50), server_rmw.len() as u64),
        m("core.outside_p50_us", "us", quantile(&outside, 0.50), outside.len() as u64),
        m("core.msgs_per_op", "msgs/op", per_op(d.msgs), nn),
        m("core.msgs_per_envelope", "msgs/env", per_env, d.envelopes),
        m("core.acks_per_op", "acks/op", per_op(d.acks), nn),
        m(
            "core.acks_coalesced_frac",
            "1",
            ratio(d.acks_coalesced as f64, (d.acks_coalesced + single_acks) as f64),
            d.acks_coalesced + single_acks,
        ),
        m("core.local_read_frac", "1", ratio(d.local_reads as f64, reads), reads as u64),
        m(
            "core.slow_release_frac",
            "1",
            ratio(d.slow_releases as f64, (d.fast_releases + d.slow_releases) as f64),
            d.fast_releases + d.slow_releases,
        ),
        m("core.epoch_bumps", "count", d.epoch_bumps as f64, 1),
        m("core.slow_path_per_kop", "1/kop", per_op(d.slow_path_accesses) * 1e3, nn),
        m("fabric.frames_out_per_op", "frames/op", per_op(d.frames_out), nn),
        m("fabric.frames_in_per_op", "frames/op", per_op(d.frames_in), nn),
        m("fabric.shed", "count", d.shed as f64, 1),
        m("fabric.dropped_out", "count", d.dropped_out as f64, 1),
        m("fabric.connects", "count", d.connects as f64, 1),
        m("fabric.decode_errors", "count", d.decode_errors as f64, 1),
        m("wire.encode_ns_per_msg", "ns", c.encode_ns_per_msg, r),
        m("wire.decode_ns_per_msg", "ns", c.decode_ns_per_msg, r),
        m("wire.client_frame_ns", "ns", c.client_frame_ns, r),
        m("kvs.writes_per_op", "writes/op", per_op(d.store_writes), nn),
        m("kvs.fast_write_ns", "ns", c.fast_write_ns, r),
        m("kvs.apply_max_ns", "ns", c.apply_max_ns, r),
        m("kvs.stamp_apply_ns", "ns", c.stamp_apply_ns, r),
        m("kvs.view_ns", "ns", c.view_ns, r),
        m("wal.records_per_op", "records/op", per_op(d.wal_records), nn),
        m(
            "wal.records_per_fsync",
            "records",
            ratio(d.wal_records as f64, d.wal_fsyncs as f64),
            d.wal_fsyncs,
        ),
        m("wal.fsyncs_per_s", "1/s", d.wal_fsyncs as f64 / secs, d.wal_fsyncs),
        m("wal.commit_p50_us", "us", ctl.wal_commit.p50() as f64 / 1e3, ctl.wal_commit.count),
        m("wal.commit_p99_us", "us", ctl.wal_commit.p99() as f64 / 1e3, ctl.wal_commit.count),
        m("wal.lag_bytes_max", "B", ctl.wal_lag_max as f64, 1),
        m("wal.record_ns", "ns", c.record_ns, r),
        m("ae.digest_bytes_per_op", "B/op", per_op(d.ae_digest_bytes), nn),
        m(
            "ae.sync_bytes_per_key",
            "B/key",
            ratio(ctl.sync_bytes as f64, ctl.catchup_keys as f64),
            ctl.catchup_keys,
        ),
        m("ae.repair_vals", "count", d.ae_repair_vals as f64, 1),
        m(
            "ae.repair_useful_frac",
            "1",
            ratio(d.ae_repairs_applied as f64, d.ae_repair_vals as f64),
            d.ae_repair_vals,
        ),
        m("ae.merkle_reqs", "count", d.ae_merkle_reqs as f64, 1),
        m("membership.installs", "count", d.installs as f64, 1),
        m("membership.stale_dropped", "count", d.stale_dropped as f64, 1),
        m("membership.pulls", "count", d.pulls as f64, 1),
        m("metrics.hist_record_ns", "ns", c.hist_record_ns, lat_ns.len() as u64),
        m("trace.overhead_frac", "1", ratio(out.gen_cpu_ns_per_op - base_gen, base_gen), spans),
    ];

    // Reconciliation: per-op counts times replayed cost per call, against
    // the CPU per op measured on the untraced windows.
    let measured =
        ratio(base.iter().map(|b| b.cpu_us).sum(), base.iter().map(|b| b.completed() as f64).sum());
    let wire_us = per_op(d.msgs) * (c.encode_ns_per_msg + c.decode_ns_per_msg) / 1e3;
    let kvs_us = per_op(d.store_writes) * c.apply_max_ns / 1e3;
    let wal_us = per_op(d.wal_records) * c.record_ns / 1e3;
    let client_us = c.client_frame_ns / 1e3;
    let metrics_us = c.hist_record_ns / 1e3;
    let predicted = wire_us + kvs_us + wal_us + client_us + metrics_us;
    let unexplained = measured - predicted;
    report.layers.push(m("reconcile.predicted_us_per_op", "us", predicted, nn));
    report.layers.push(m("reconcile.unexplained_us_per_op", "us", unexplained, nn));
    report.reconcile = Some(format!(
        "predicted {predicted:.3} us/op = wire {wire_us:.3} ({:.2} msgs/op x {:.0} ns enc+dec) + kvs {kvs_us:.3} \
         ({:.2} writes/op x {:.0} ns) + wal {wal_us:.3} ({:.2} records/op x {:.0} ns) + client frames {client_us:.3} \
         + metrics {metrics_us:.3}; measured cpu {measured:.3} us/op (untraced windows); unexplained \
         {unexplained:.3} us/op ({:.0}%): event-loop wakes, syscalls, scheduling",
        per_op(d.msgs),
        c.encode_ns_per_msg + c.decode_ns_per_msg,
        per_op(d.store_writes),
        c.apply_max_ns,
        per_op(d.wal_records),
        c.record_ns,
        ratio(unexplained, measured) * 100.0,
    ));
}
