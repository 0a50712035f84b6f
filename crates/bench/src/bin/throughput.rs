//! Closed-loop throughput + hot-path microbenchmark bin, emitting a
//! `BENCH_*.json` data point so the repo's perf trajectory is recorded
//! per-PR (driven by `scripts/bench.sh`).
//!
//! Two measurement groups:
//!
//! * **micro** — wall-clock ns/op of the request-path primitives this
//!   reproduction optimizes: in-flight slab reply lookup (vs the seed's
//!   HashMap remove/reinsert), recycled outbox flush, O(1) `Store::len`.
//! * **e2e** — closed-loop throughput (mreqs, virtual time) of the
//!   simulated paper deployment under fixed seeds: ES reads/writes, a
//!   typical Kite mix, and Paxos RMWs — plus the wall-clock cost of
//!   simulating one virtual millisecond (the simulator's own hot path,
//!   which runs through the same outbox/slab code).
//!
//! Usage: `throughput [--out BENCH_micro.json] [--seed 42]
//!                    [--transport sim|threaded|tcp|all]`
//!
//! `--transport` selects the e2e scheduler: `sim` (default) runs the
//! deterministic virtual-time rows; `threaded` drives the in-process
//! threaded cluster wall-clock; `tcp` drives a loopback TCP cluster
//! (real sockets, `kite-net`) wall-clock; `all` runs everything. The
//! wall-clock rows are **noisy** (they measure this machine, not the
//! protocol) — they are written to the JSON for trend-watching but
//! excluded from the ±10% regression table.
//!
//! Before overwriting `--out`, an existing file there is treated as the
//! committed baseline: every metric is diffed and a ±10% regression table
//! is printed — a regression is flagged loudly instead of silently
//! replacing the numbers.

use std::time::Instant;

use kite::api::Op;
use kite::inflight::{EsWriteState, InFlight, InFlightTable, Meta};
use kite::msg::Msg;
use kite::ProtocolMode;
use kite_bench::{paper_cluster, paper_sim, RUN_NS, WARMUP_NS};
use kite_common::{Key, Lc, NodeId, NodeSet, OpId, SessionId, Val};
use kite_simnet::Outbox;
use kite_workloads::{run_kite_gen, run_kite_mix, FlashCrowdCfg, MixCfg, RunResult};

fn arg_after(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// Time `f` for at least `min_iters` iterations and ~50 ms, returning mean
/// ns/op.
fn time_ns_per_op(min_iters: u64, mut f: impl FnMut()) -> f64 {
    // warm up
    for _ in 0..min_iters.min(10_000) {
        f();
    }
    let mut iters = 0u64;
    let start = Instant::now();
    while iters < min_iters || start.elapsed().as_millis() < 50 {
        for _ in 0..1024 {
            f();
        }
        iters += 1024;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn es_entry(tag: u64) -> InFlight {
    InFlight::EsWrite(EsWriteState {
        meta: Meta {
            sess: 0,
            op_id: OpId::new(SessionId::new(NodeId(0), 0), tag),
            key: Key(tag),
            op: Op::Read { key: Key(tag) },
            invoked_at: tag,
            last_sent: 0,
        },
        val: Val::EMPTY,
        lc: Lc::ZERO,
        acked: NodeSet::singleton(NodeId(0)),
    })
}

fn micro_measurements(rows: &mut Vec<(String, f64)>) {
    // inflight/reply_lookup: resolve + fold one ack in place, 64 live ops.
    {
        let mut table = InFlightTable::new();
        let rids: Vec<u64> = (0..64).map(|i| table.insert(es_entry(i))).collect();
        let mut i = 0usize;
        let ns = time_ns_per_op(200_000, || {
            i = (i + 1) & 63;
            if let Some(InFlight::EsWrite(es)) = table.get_mut(std::hint::black_box(rids[i])) {
                es.acked.insert(NodeId(1));
            }
        });
        rows.push(("inflight/reply_lookup".into(), ns));
    }
    // Baseline ("before"): the seed's reply path — HashMap lookup with the
    // remove → mutate → reinsert pattern every handler used.
    {
        let mut map: std::collections::HashMap<u64, InFlight> = std::collections::HashMap::new();
        let rids: Vec<u64> = (0..64u64).map(|i| i * 7 + 1).collect();
        for (i, rid) in rids.iter().enumerate() {
            map.insert(*rid, es_entry(i as u64));
        }
        let mut i = 0usize;
        let ns = time_ns_per_op(200_000, || {
            i = (i + 1) & 63;
            let rid = std::hint::black_box(rids[i]);
            let mut entry = map.remove(&rid).unwrap();
            if let InFlight::EsWrite(es) = &mut entry {
                es.acked.insert(NodeId(1));
            }
            map.insert(rid, entry);
        });
        rows.push(("inflight/reply_lookup_hashmap_baseline".into(), ns));
    }
    // inflight/insert_remove: one op's slab lifecycle.
    {
        let mut table = InFlightTable::new();
        for i in 0..63 {
            table.insert(es_entry(i));
        }
        let ns = time_ns_per_op(200_000, || {
            let rid = table.insert(es_entry(99));
            std::hint::black_box(table.remove(rid));
        });
        rows.push(("inflight/insert_remove".into(), ns));
    }
    // outbox/flush_recycled: 5-node broadcast, flush, recycle.
    {
        let mut ob: Outbox<u64> = Outbox::new(5);
        let mut returned: Vec<Vec<u64>> = Vec::with_capacity(4);
        let ns = time_ns_per_op(100_000, || {
            ob.broadcast(NodeId(0), 42u64);
            ob.flush(|_, b| returned.push(b));
            for b in returned.drain(..) {
                ob.recycle(b);
            }
        });
        rows.push(("outbox/flush_recycled".into(), ns));
    }
    // store/len: O(1) population counter.
    {
        let store = kite_kvs::Store::new(1 << 16);
        for k in 0..(1u64 << 12) {
            store.fast_write(Key(k), &Val::from_u64(k), NodeId(0), kite_common::Epoch::ZERO);
        }
        let ns = time_ns_per_op(500_000, || {
            std::hint::black_box(store.len());
        });
        rows.push(("store/len".into(), ns));
    }
    // msg/clone_broadcast: 4-peer broadcast of a compact (≤ 64 B) EsWrite
    // through the recycled outbox — what every relaxed write pays.
    {
        let mut ob: Outbox<Msg> = Outbox::new(5);
        let m = Msg::EsWrite {
            rid: 42,
            key: Key(7),
            val: Val::from_bytes(&[9u8; 32]),
            lc: Lc::new(3, NodeId(0)),
        };
        let mut returned: Vec<Vec<Msg>> = Vec::with_capacity(4);
        let ns = time_ns_per_op(100_000, || {
            ob.broadcast(NodeId(0), m.clone());
            ob.flush(|_, b| returned.push(b));
            for mut b in returned.drain(..) {
                b.clear();
                ob.recycle(b);
            }
        });
        rows.push(("msg/clone_broadcast".into(), ns));
    }
    // outbox/ack_batch_drain: stage 16 ack rids, emit one batch, drain it,
    // recycle the buffer — the coalesced-ack cycle both runtimes run.
    {
        let mut staged: Vec<u64> = Vec::with_capacity(16);
        let mut pool: Vec<Vec<u64>> = vec![Vec::with_capacity(16)];
        let ns = time_ns_per_op(100_000, || {
            for rid in 0..16u64 {
                staged.push(rid);
            }
            let mut batch = std::mem::replace(&mut staged, pool.pop().unwrap_or_default());
            let mut acc = 0u64;
            for rid in batch.drain(..) {
                acc = acc.wrapping_add(std::hint::black_box(rid));
            }
            pool.push(batch);
            std::hint::black_box(acc);
        });
        rows.push(("outbox/ack_batch_drain".into(), ns));
    }
}

// ---------------------------------------------------------------------------
// Wall-clock transports (threaded / tcp loopback)
// ---------------------------------------------------------------------------

/// One e2e result row. The latency triple is only present on the
/// wall-clock transport rows (exact percentiles over every completed op);
/// the virtual-time sim rows have no wall latency to report.
struct Row {
    name: String,
    mreqs: f64,
    wall_ms: f64,
    acks_per_op: f64,
    ae_per_op: f64,
    ae_bytes_per_op: f64,
    /// (p50, p99, p999) in µs.
    lat: Option<(f64, f64, f64)>,
    /// Transport health on the socket rows: (frames shed to ring
    /// backpressure, inbound decode errors) summed over every link of
    /// every node. Print-only — sheds are load-dependent (expected under
    /// saturation), decode errors must be zero.
    net: Option<(u64, u64)>,
}

/// Exact percentiles from the full sample set (the shared `Histogram` is
/// power-of-two bucketed — too coarse for a p999 claim). Sorts in place.
fn percentiles_us(lat: &mut [u64]) -> Option<(f64, f64, f64)> {
    if lat.is_empty() {
        return None;
    }
    lat.sort_unstable();
    let pick = |q: f64| lat[((lat.len() - 1) as f64 * q).round() as usize] as f64;
    Some((pick(0.50), pick(0.99), pick(0.999)))
}

/// The i-th op of wall-clock client `client_idx` — the same class mix the
/// sim row `kite_typical_20w` runs (`MixCfg::typical(0.2)`): 1% releases,
/// 4% acquires, 19% relaxed writes, 76% relaxed reads, uniform keys (a
/// multiplicative hash of the per-client op counter). Keeping the shapes
/// identical is what makes the sim-vs-socket gap a transport comparison
/// rather than a workload comparison — the previous shape here put every
/// sync op on one global hot key, which measures consensus serialization
/// on that key, not fabric capacity.
fn mixed_op(i: usize, client_idx: usize, keys: u64) -> Op {
    let v = ((client_idx as u64 + 1) << 40) | (i as u64 + 1);
    let key = Key((v.wrapping_mul(0x9E3779B97F4A7C15) >> 16) % keys);
    let r = i % 100;
    if r < 1 {
        Op::Release { key, val: Val::from_u64(v) }
    } else if r < 5 {
        Op::Acquire { key }
    } else if r < 24 {
        Op::Write { key, val: Val::from_u64(v) }
    } else {
        Op::Read { key }
    }
}

/// Sync-API flavour of [`mixed_op`] for the threaded row's blocking
/// sessions (same class ratios and key hash). Returns `false` on the
/// first error.
fn drive_mixed_client(
    mut call: impl FnMut(usize, u64) -> bool,
    ops: usize,
    client_idx: usize,
) -> usize {
    let mut done = 0;
    for i in 0..ops {
        let r = i % 100;
        let kind = if r < 1 {
            2 // release
        } else if r < 5 {
            3 // acquire
        } else if r < 24 {
            1 // write
        } else {
            0 // read
        };
        let v = ((client_idx as u64 + 1) << 40) | (i as u64 + 1);
        if !call(kind, v) {
            break;
        }
        done += 1;
    }
    done
}

/// Wall-clock config for the loopback transports: small enough to launch
/// per run, same shape as the paper deployment. `ops_per_tick` is raised
/// from the conservative default (2) to 16 so each event-loop wake drains
/// a meaningful slice of a pipelined session's backlog — at 2, a deep
/// client window is throttled by the worker, not the fabric (measured
/// ~1.8× on the mixed row). The sim rows use `paper_cluster()` and are
/// untouched by this knob.
fn loopback_cfg() -> kite_common::ClusterConfig {
    kite_common::ClusterConfig::small().keys(1 << 12).sessions_per_worker(4).ops_per_tick(16)
}

/// Closed-loop blocking clients against the in-process threaded cluster.
/// Latency here is the sync call's round-trip (one op in flight per
/// client — the pre-pipelining regime, kept as the comparison row).
fn threaded_row(ops_per_client: usize) -> Row {
    let cfg = loopback_cfg();
    let cluster =
        std::sync::Arc::new(kite::Cluster::launch(cfg.clone(), ProtocolMode::Kite).expect("launch"));
    let clients = cfg.nodes * 2;
    let wall = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let cluster = std::sync::Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let node = kite_common::NodeId((c % cfg.nodes) as u8);
            let mut s = cluster.session(node, (c / cfg.nodes) as u32).expect("session");
            let keys = cfg.keys as u64;
            let mut lat_us = Vec::with_capacity(ops_per_client);
            let done = drive_mixed_client(
                |kind, v| {
                    let key = Key((v.wrapping_mul(0x9E3779B97F4A7C15) >> 16) % keys);
                    let t0 = Instant::now();
                    let ok = match kind {
                        0 => s.read(key).is_ok(),
                        1 => s.write(key, v).is_ok(),
                        2 => s.release(key, v).is_ok(),
                        _ => s.acquire(key).is_ok(),
                    };
                    lat_us.push(t0.elapsed().as_micros() as u64);
                    ok
                },
                ops_per_client,
                c,
            );
            (done, lat_us)
        }));
    }
    let mut total = 0usize;
    let mut lat_us: Vec<u64> = Vec::new();
    for h in handles {
        let (done, lat) = h.join().expect("client");
        total += done;
        lat_us.extend(lat);
    }
    let secs = wall.elapsed().as_secs_f64();
    match std::sync::Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => unreachable!("clients joined"),
    }
    Row {
        name: "threaded_mixed_20w".into(),
        mreqs: total as f64 / secs / 1e6,
        wall_ms: secs * 1e3,
        acks_per_op: 0.0,
        ae_per_op: 0.0,
        ae_bytes_per_op: 0.0,
        lat: percentiles_us(&mut lat_us),
        net: None,
    }
}

/// How many ops a pipelined client keeps in flight: deep enough to keep
/// the per-worker event loops busy across the socket round-trip, shallow
/// enough that p99 stays a queueing measurement rather than a queue-length
/// one.
const PIPE_WINDOW: usize = 128;

/// One closed-loop *pipelined* client: keep [`PIPE_WINDOW`] ops in flight,
/// reap completions as they land. Per-op latency is submit → completion
/// arrival (completions retire in session order, so the submit-time queue
/// pops in matching order). Returns (completed, per-op µs).
fn pipelined_client(
    addr: &str,
    slot: u32,
    ops: usize,
    client_idx: usize,
    keys: u64,
) -> (usize, Vec<u64>) {
    let mut s = kite_net::RemoteSession::connect(addr, slot).expect("remote session");
    let mut submit_at: std::collections::VecDeque<Instant> =
        std::collections::VecDeque::with_capacity(PIPE_WINDOW + 1);
    let mut lat_us = Vec::with_capacity(ops);
    let mut done = 0usize;
    let mut reap = |s: &mut kite_net::RemoteSession,
                    submit_at: &mut std::collections::VecDeque<Instant>,
                    block: bool|
     -> bool {
        if block {
            let (_c, arrival) = s.next_completion_arrival().expect("completion");
            let t0 = submit_at.pop_front().expect("submit time");
            lat_us.push(arrival.saturating_duration_since(t0).as_micros() as u64);
            done += 1;
        }
        while let Some((_c, arrival)) = s.poll_completion().expect("poll") {
            let t0 = submit_at.pop_front().expect("submit time");
            lat_us.push(arrival.saturating_duration_since(t0).as_micros() as u64);
            done += 1;
        }
        true
    };
    for i in 0..ops {
        while s.outstanding() >= PIPE_WINDOW {
            reap(&mut s, &mut submit_at, true);
        }
        submit_at.push_back(Instant::now());
        s.submit(mixed_op(i, client_idx, keys)).expect("submit");
        reap(&mut s, &mut submit_at, false);
    }
    s.flush().expect("flush");
    while s.outstanding() > 0 {
        reap(&mut s, &mut submit_at, true);
    }
    (done, lat_us)
}

/// Pipelined closed-loop clients over loopback TCP: three `NodeRuntime`s
/// in this process, every op crossing real sockets through
/// `RemoteSession` with [`PIPE_WINDOW`] ops in flight per connection. With
/// `wal` on, every node group-commits to a scratch directory — the row
/// quantifies what durability costs the deployment (the WAL flusher's
/// fsync cadence bounds release/RMW completion, so the deep window mostly
/// hides it from throughput but not from p99).
fn tcp_row(ops_per_client: usize, wal: bool) -> Row {
    let mut cfg = loopback_cfg();
    let wal_dir = std::env::temp_dir().join(format!("kite-bench-wal-{}", std::process::id()));
    if wal {
        let _ = std::fs::remove_dir_all(&wal_dir);
        cfg = cfg.wal(true).wal_dir(wal_dir.to_str().expect("utf8 tempdir"));
    }
    let nodes = kite_net::launch_local_cluster(cfg.clone(), ProtocolMode::Kite).expect("launch tcp");
    // Diagnostics: KITE_TCP_WATCHDOG=<secs> arms each node's watchdog so a
    // stalled run aborts with per-worker protocol dumps + link tables.
    let _wds: Vec<_> = std::env::var("KITE_TCP_WATCHDOG")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(|secs| {
            nodes.iter().map(|n| n.watchdog(std::time::Duration::from_secs(secs))).collect()
        })
        .unwrap_or_default();
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let clients = cfg.nodes * 2;
    let wall = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let addr = addrs[c % cfg.nodes].clone();
        let keys = cfg.keys as u64;
        let slot = (c / cfg.nodes) as u32;
        handles
            .push(std::thread::spawn(move || pipelined_client(&addr, slot, ops_per_client, c, keys)));
    }
    let mut total = 0usize;
    let mut lat_us: Vec<u64> = Vec::new();
    for h in handles {
        let (done, lat) = h.join().expect("client");
        total += done;
        lat_us.extend(lat);
    }
    let secs = wall.elapsed().as_secs_f64();
    let net = link_totals(&nodes);
    for n in nodes {
        n.shutdown();
    }
    if wal {
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
    Row {
        name: if wal { "tcp_loopback_mixed_20w_wal" } else { "tcp_loopback_mixed_20w" }.into(),
        mreqs: total as f64 / secs / 1e6,
        wall_ms: secs * 1e3,
        acks_per_op: 0.0,
        ae_per_op: 0.0,
        ae_bytes_per_op: 0.0,
        lat: percentiles_us(&mut lat_us),
        net: Some(net),
    }
}

/// Sum (shed frames, decode errors) across every link of every node.
fn link_totals(nodes: &[kite_net::NodeRuntime]) -> (u64, u64) {
    nodes.iter().fold((0, 0), |(s, d), n| {
        (s + n.links().total_shed_full(), d + n.links().total_decode_errors())
    })
}

/// Open-loop clients over loopback TCP: each client submits on a fixed
/// arrival schedule (`rate_per_client` ops/s) regardless of completions,
/// so the latency distribution includes queueing delay — the
/// latency-under-load view a closed loop structurally cannot show
/// (coordinated omission). Latency is measured from the op's *scheduled*
/// arrival time.
fn tcp_openloop_row(rate_per_client: u64, run_secs: f64) -> Row {
    let cfg = loopback_cfg();
    let nodes = kite_net::launch_local_cluster(cfg.clone(), ProtocolMode::Kite).expect("launch tcp");
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let clients = cfg.nodes * 2;
    let ops_per_client = (rate_per_client as f64 * run_secs) as usize;
    let interval = std::time::Duration::from_nanos(1_000_000_000 / rate_per_client);
    let wall = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let addr = addrs[c % cfg.nodes].clone();
        let keys = cfg.keys as u64;
        let slot = (c / cfg.nodes) as u32;
        handles.push(std::thread::spawn(move || {
            let mut s = kite_net::RemoteSession::connect(&addr, slot).expect("remote session");
            let mut sched: std::collections::VecDeque<Instant> =
                std::collections::VecDeque::new();
            let mut lat_us = Vec::with_capacity(ops_per_client);
            let start = Instant::now();
            let mut submitted = 0usize;
            let mut done = 0usize;
            while done < ops_per_client {
                // Submit every op whose scheduled arrival has passed —
                // open loop: the schedule does not wait for completions.
                while submitted < ops_per_client {
                    let due = start + interval * submitted as u32;
                    if Instant::now() < due {
                        break;
                    }
                    sched.push_back(due);
                    s.submit(mixed_op(submitted, c, keys)).expect("submit");
                    submitted += 1;
                }
                match s.poll_completion().expect("poll") {
                    Some((_c, arrival)) => {
                        let due = sched.pop_front().expect("scheduled time");
                        lat_us.push(arrival.saturating_duration_since(due).as_micros() as u64);
                        done += 1;
                    }
                    None if submitted == ops_per_client => {
                        s.flush().expect("flush");
                        let (_c, arrival) = s.next_completion_arrival().expect("drain");
                        let due = sched.pop_front().expect("scheduled time");
                        lat_us.push(arrival.saturating_duration_since(due).as_micros() as u64);
                        done += 1;
                    }
                    None => {
                        // Nothing landed and the next arrival is in the
                        // future: sleep in poll(2) until the socket has
                        // work or the schedule comes due (never spin —
                        // see RemoteSession::wait_event).
                        let next_due = start + interval * submitted as u32;
                        let nap = next_due
                            .saturating_duration_since(Instant::now())
                            .min(std::time::Duration::from_millis(1));
                        if !nap.is_zero() {
                            s.wait_event(nap).expect("wait");
                        }
                    }
                }
            }
            (done, lat_us)
        }));
    }
    let mut total = 0usize;
    let mut lat_us: Vec<u64> = Vec::new();
    for h in handles {
        let (done, lat) = h.join().expect("client");
        total += done;
        lat_us.extend(lat);
    }
    let secs = wall.elapsed().as_secs_f64();
    let net = link_totals(&nodes);
    for n in nodes {
        n.shutdown();
    }
    Row {
        name: "tcp_openloop_mixed_20w".into(),
        mreqs: total as f64 / secs / 1e6,
        wall_ms: secs * 1e3,
        acks_per_op: 0.0,
        ae_per_op: 0.0,
        ae_bytes_per_op: 0.0,
        lat: percentiles_us(&mut lat_us),
        net: Some(net),
    }
}

/// Learner-join catch-up cost over loopback TCP: node 2 dies for good, an
/// add-learner config change demotes its slot, the survivors absorb a
/// `fill`-key store, and a **fresh, empty** node 2 relaunches on the same
/// address. The row measures wall-clock from relaunch to full value
/// convergence and the bulk-sync wire bytes the survivors sent
/// (`ae_repair_bytes` + `ae_digest_bytes` deltas) — `ae_bytes_per_op` here
/// is bytes per synced key, the join-time figure `scripts/bench.sh`
/// tracks.
fn tcp_join_row(fill: u64) -> Row {
    use kite_common::{Membership, MEMBERSHIP_KEY};
    let cfg = loopback_cfg()
        .keys(1 << 15)
        .anti_entropy_interval_ns(2_000_000)
        .anti_entropy_chunk(1024)
        .anti_entropy_keepalive_ns(5_000_000);
    let nodes = kite_net::launch_local_cluster(cfg.clone(), ProtocolMode::Kite).expect("launch tcp");
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let mut nodes: Vec<Option<kite_net::NodeRuntime>> = nodes.into_iter().map(Some).collect();
    nodes[2].take().expect("node 2 running").shutdown();

    // The same add-learner CAS `kite-node --join` commits, through a
    // survivor; the fill then runs on the {0, 1} voter majority.
    let mut s = kite_net::RemoteSession::connect(&addrs[0], 0).expect("connect");
    let cur = s.acquire(MEMBERSHIP_KEY).expect("read membership");
    let m0 = Membership { epoch: 0, voters: NodeSet::all(cfg.nodes), learners: NodeSet::EMPTY };
    let (ok, _) =
        s.cas_strong(MEMBERSHIP_KEY, cur, m0.with_learner(NodeId(2)).to_val()).expect("cas");
    assert!(ok, "add-learner CAS on the surviving majority");
    for i in 0..fill {
        while s.outstanding() >= PIPE_WINDOW {
            s.next_completion_arrival().expect("fill completion");
        }
        s.submit(Op::Write { key: Key(1000 + i), val: Val::from_u64(i + 1) }).expect("fill");
    }
    s.flush().expect("flush");
    while s.outstanding() > 0 {
        s.next_completion_arrival().expect("fill drain");
    }

    // Snapshot the survivors' sync-plane counters, then bring up the
    // replacement and wait for full value convergence.
    let survivors: Vec<_> = nodes.iter().flatten().collect();
    let bytes_before: u64 = survivors
        .iter()
        .map(|n| n.counters().ae_repair_bytes.get() + n.counters().ae_digest_bytes.get())
        .sum();
    let target = survivors[0].shared().store.values();
    let wall = Instant::now();
    let reborn = kite_net::NodeRuntime::launch(kite_net::NodeConfig::new(
        cfg,
        ProtocolMode::Kite,
        NodeId(2),
        addrs,
    ))
    .expect("relaunch node 2");
    while reborn.shared().store.values() < target {
        assert!(wall.elapsed().as_secs() < 120, "learner bulk-sync stalled");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let secs = wall.elapsed().as_secs_f64();
    let bulk_bytes: u64 = nodes
        .iter()
        .flatten()
        .map(|n| n.counters().ae_repair_bytes.get() + n.counters().ae_digest_bytes.get())
        .sum::<u64>()
        - bytes_before;
    drop(s);
    reborn.shutdown();
    for n in nodes.into_iter().flatten() {
        n.shutdown();
    }
    Row {
        name: format!("tcp_join_bulk_sync_{}k", fill / 1_000),
        mreqs: fill as f64 / secs / 1e6,
        wall_ms: secs * 1e3,
        acks_per_op: 0.0,
        ae_per_op: 0.0,
        ae_bytes_per_op: bulk_bytes as f64 / fill as f64,
        lat: None,
        net: None,
    }
}

/// Wall-clock transport rows measure this machine, not the protocol:
/// written to the JSON, excluded from the regression table.
fn is_noisy(name: &str) -> bool {
    name.starts_with("tcp_") || name.starts_with("threaded_")
}

/// Turn one sim `RunResult` into a printed line + e2e row (shared by the
/// `MixCfg` rows and the hostile-skew generator rows).
fn push_sim_row(name: &str, r: &RunResult, wall_ms: f64, e2e: &mut Vec<Row>) {
    let per_op = |num: u64| {
        if r.total_completed > 0 {
            num as f64 / r.total_completed as f64
        } else {
            0.0
        }
    };
    // Ack messages per completed op: the coalescing win. For the
    // write-only runs this is acks-per-write; the seed paid N−1.
    let apw = per_op(r.ack_msgs);
    // Anti-entropy messages per op: the background-convergence
    // subsystem's probe — steady-state digest traffic must stay
    // negligible (< 0.01 msgs/op at 0% loss; also pinned by
    // tests/antientropy.rs).
    let ae = per_op(r.ae_msgs);
    // Digest-plane bytes per op: the figure the Merkle-range mode
    // shrinks from O(store) to O(log store) per sweep cycle (asserted
    // at the 100k-key scale by tests/antientropy.rs).
    let aeb = per_op(r.ae_digest_bytes);
    println!(
        "{name:<28} {:8.3} mreqs   (wall {wall_ms:7.1} ms, {apw:.2} ack-msgs/op, \
         {} coalesced, {ae:.4} ae-msgs/op, {aeb:.2} ae-bytes/op)",
        r.mreqs, r.acks_coalesced
    );
    e2e.push(Row {
        name: name.to_string(),
        mreqs: r.mreqs,
        wall_ms,
        acks_per_op: apw,
        ae_per_op: ae,
        ae_bytes_per_op: aeb,
        lat: None,
        net: None,
    });
}

// ---------------------------------------------------------------------------
// Baseline diff
// ---------------------------------------------------------------------------

/// Parse the metrics out of a previously written BENCH_micro.json (our own
/// hand-rolled format: `"name": 1.23,` and
/// `"name": { "mreqs": 1.23, ... }` lines).
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else { continue };
        let Some((name, rest)) = rest.split_once('"') else { continue };
        if matches!(name, "bench" | "micro_ns_per_op" | "e2e") {
            continue;
        }
        let num = if let Some((_, tail)) = rest.split_once("\"mreqs\":") {
            // An e2e object line: also pick up its ae-bytes/op sub-metric
            // so the Merkle digest-plane win is regression-guarded too.
            if let Some((_, btail)) = rest.split_once("\"ae_bytes_per_op\":") {
                if let Some(v) = btail
                    .split(|c: char| c == ',' || c == '}')
                    .next()
                    .and_then(|t| t.trim().parse::<f64>().ok())
                {
                    out.push((format!("{name}/ae_bytes_per_op"), v));
                }
            }
            tail.split(|c: char| c == ',' || c == '}').next()
        } else {
            rest.strip_prefix(':').map(|t| t.trim_end_matches(','))
        };
        if let Some(v) = num.and_then(|t| t.trim().parse::<f64>().ok()) {
            if name != "seed" {
                out.push((name.to_string(), v));
            }
        }
    }
    out
}

/// Diff fresh metrics against the committed baseline and print a regression
/// table; ±10% moves are flagged. Lower is better for `*_ns_per_op` rows,
/// higher is better for e2e mreqs rows.
fn diff_against_baseline(path: &str, micro: &[(String, f64)], e2e: &[Row]) {
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("(no committed baseline at {path}; skipping regression diff)");
        return;
    };
    let baseline = parse_baseline(&text);
    if baseline.is_empty() {
        println!("(baseline at {path} has no parsable metrics; skipping diff)");
        return;
    }
    let fresh: Vec<(String, f64, bool)> = micro
        .iter()
        .map(|(n, v)| (n.clone(), *v, /*lower_is_better=*/ true))
        .chain(
            e2e.iter()
                .filter(|r| !is_noisy(&r.name)) // wall-clock rows: no regression gate
                .flat_map(|r| {
                    // mreqs: higher is better; ae-bytes/op: lower is better.
                    [
                        (r.name.clone(), r.mreqs, false),
                        (format!("{}/ae_bytes_per_op", r.name), r.ae_bytes_per_op, true),
                    ]
                }),
        )
        .collect();
    println!("\n== regression check vs committed {path} (±10%) ==");
    println!("{:<36} {:>10} {:>10} {:>8}", "metric", "baseline", "fresh", "Δ%");
    let mut warned = 0;
    for (name, now, lower_is_better) in &fresh {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == name) else {
            println!("{name:<36} {:>10} {now:>10.2}     (new)", "-");
            continue;
        };
        let delta = if *base != 0.0 { (now - base) / base * 100.0 } else { 0.0 };
        let regressed = if *lower_is_better { delta > 10.0 } else { delta < -10.0 };
        let mark = if regressed {
            warned += 1;
            "  << REGRESSION"
        } else {
            ""
        };
        println!("{name:<36} {base:>10.2} {now:>10.2} {delta:>+7.1}%{mark}");
    }
    if warned > 0 {
        println!("!! {warned} metric(s) regressed by more than 10% — investigate before committing");
    } else {
        println!("no >10% regressions");
    }
}

fn main() {
    let out_arg = arg_after("--out");
    let out_path = out_arg.clone().unwrap_or_else(|| "BENCH_micro.json".into());
    let seed: u64 = match arg_after("--seed") {
        None => 42,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("bad --seed {s} (expected an unsigned integer)");
            std::process::exit(2);
        }),
    };
    let transport = arg_after("--transport").unwrap_or_else(|| "sim".into());
    let (run_sim, run_threaded, run_tcp) = match transport.as_str() {
        "sim" => (true, false, false),
        "threaded" => (false, true, false),
        "tcp" => (false, false, true),
        "all" => (true, true, true),
        t => {
            eprintln!("unknown --transport {t} (expected sim|threaded|tcp|all)");
            std::process::exit(2);
        }
    };

    eprintln!("[throughput] micro measurements …");
    let mut micro: Vec<(String, f64)> = Vec::new();
    micro_measurements(&mut micro);
    for (name, ns) in &micro {
        println!("{name:<28} {ns:8.2} ns/op");
    }

    eprintln!("[throughput] end-to-end closed-loop runs (fixed seeds) …");
    // `--no-coalesce` reruns the e2e suite with per-message acks — the
    // before/after knob for the ack-coalescing win (use a scratch --out).
    let coalesce = !std::env::args().any(|a| a == "--no-coalesce");
    let cfg = paper_cluster().coalesce_acks(coalesce);
    let keys = cfg.keys as u64;
    let runs: Vec<(&str, ProtocolMode, MixCfg)> = if run_sim {
        vec![
        ("es_reads_1w", ProtocolMode::EsOnly, MixCfg::plain(0.01, keys)),
        ("es_writes_100w", ProtocolMode::EsOnly, MixCfg::plain(1.0, keys)),
        // Kite-mode write-only: every write's N−1 acks are tracked for the
        // release barrier — the run the ack-coalescing path exists for.
        ("kite_writes_100w", ProtocolMode::Kite, MixCfg::plain(1.0, keys)),
        ("kite_typical_20w", ProtocolMode::Kite, MixCfg::typical(0.2, keys)),
        ("paxos_rmws_100w", ProtocolMode::PaxosOnly, MixCfg::plain(1.0, keys)),
        ]
    } else {
        Vec::new()
    };
    let mut e2e: Vec<Row> = Vec::new();
    let run_one = |name: &str,
                       cfg: kite_common::ClusterConfig,
                       mode: ProtocolMode,
                       mix: MixCfg,
                       e2e: &mut Vec<Row>| {
        let wall = Instant::now();
        let r = run_kite_mix(cfg, mode, paper_sim(seed), mix, WARMUP_NS, RUN_NS);
        push_sim_row(name, &r, wall.elapsed().as_secs_f64() * 1e3, e2e);
    };
    for (name, mode, mix) in runs {
        run_one(name, cfg.clone(), mode, mix, &mut e2e);
    }
    if run_sim {
        // Large-store anti-entropy scenario: the paper mix on a 2^17-key
        // store at the deployment-default sweep interval, flat vs Merkle
        // digests, reporting ae-bytes/op next to ae-msgs/op. Note the
        // regimes: under active churn a Merkle summary sees every
        // in-flight write as a range mismatch and pays drill-down traffic
        // per sweep (the cost is O(diverged · log store), and during a
        // measurement window every write is transiently "diverged"), while
        // flat mode amortizes discovery over a whole cursor cycle. The
        // Merkle win is the *steady-state* digest plane — converged or
        // slowly-changing stores — where summaries match and bytes drop to
        // O(log store); that regime is asserted (≥ 10×, measured ~1000×)
        // by tests/antientropy.rs on a 100k-key store.
        let big = |merkle: bool| cfg.clone().keys(1 << 17).merkle_digests(merkle);
        let big_keys = 1u64 << 17;
        run_one(
            "kite_large_store_flat",
            big(false),
            ProtocolMode::Kite,
            MixCfg::typical(0.2, big_keys),
            &mut e2e,
        );
        run_one(
            "kite_large_store_merkle",
            big(true),
            ProtocolMode::Kite,
            MixCfg::typical(0.2, big_keys),
            &mut e2e,
        );

        // Hostile-workload family: extreme Zipf and the flash crowd. These
        // rows stress the §6.3 batching/coalescing machinery — under a
        // single hot key the coalescer's worth is maximal (every node's
        // acks for that key pile onto the same links), so acks-per-op
        // staying comparable to the uniform rows IS the invariant.
        run_one(
            "kite_skew_extreme",
            cfg.clone(),
            ProtocolMode::Kite,
            MixCfg::typical(0.2, keys).skew(1.2),
            &mut e2e,
        );
        let fc = FlashCrowdCfg::extreme(keys);
        let wall = Instant::now();
        let r = run_kite_gen(
            cfg.clone(),
            ProtocolMode::Kite,
            paper_sim(seed),
            move |s| fc.generator(s),
            WARMUP_NS,
            RUN_NS,
        );
        push_sim_row("kite_flash_crowd", &r, wall.elapsed().as_secs_f64() * 1e3, &mut e2e);
    }

    // Wall-clock transports: real threads / real sockets, noisy by nature.
    let print_wall_row = |row: &Row| {
        let lat = row
            .lat
            .map(|(p50, p99, p999)| {
                format!(", p50 {p50:.0} µs, p99 {p99:.0} µs, p999 {p999:.0} µs")
            })
            .unwrap_or_default();
        let net = row
            .net
            .map(|(shed, decode)| format!(", shed {shed}, decode-errs {decode}"))
            .unwrap_or_default();
        println!(
            "{:<28} {:8.3} mreqs   (wall {:7.1} ms{lat}{net}, noisy: excluded from diff)",
            row.name, row.mreqs, row.wall_ms
        );
    };
    if run_threaded {
        eprintln!("[throughput] threaded loopback run (wall clock, noisy) …");
        // The sync closed loop holds one op in flight per client, so the
        // row is RTT-bound, not capacity-bound — it stays the blocking-API
        // comparison point next to the pipelined tcp rows.
        let row = threaded_row(4_000);
        print_wall_row(&row);
        e2e.push(row);
    }
    if run_tcp {
        eprintln!("[throughput] tcp loopback runs, wal off/on (wall clock, noisy) …");
        for wal in [false, true] {
            let row = tcp_row(if wal { 5_000 } else { 20_000 }, wal);
            print_wall_row(&row);
            e2e.push(row);
        }
        eprintln!("[throughput] tcp open-loop run (fixed arrival rate, wall clock, noisy) …");
        // Rate chosen ≈ 50–60% of the closed-loop capacity measured on this
        // class of box, so the row reports queueing delay under load rather
        // than a saturated (unbounded-queue) collapse.
        let row = tcp_openloop_row(3_000, 2.0);
        print_wall_row(&row);
        e2e.push(row);
        eprintln!("[throughput] tcp learner-join bulk-sync run (wall clock, noisy) …");
        // The join-time row: wall-clock + bytes for a fresh learner to
        // catch up a 20k-key store through anti-entropy alone.
        let row = tcp_join_row(20_000);
        println!(
            "{:<28} {:8.1} ms catch-up, {:.1} sync bytes/key",
            row.name,
            row.wall_ms,
            row.ae_bytes_per_op
        );
        e2e.push(row);
    }

    diff_against_baseline(&out_path, &micro, &e2e);

    // Hand-rolled JSON (serde_json is not a dependency).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"bench\": \"throughput\",\n  \"seed\": {seed},\n"));
    json.push_str("  \"micro_ns_per_op\": {\n");
    for (i, (name, ns)) in micro.iter().enumerate() {
        let comma = if i + 1 < micro.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.2}{comma}\n"));
    }
    json.push_str("  },\n  \"e2e\": {\n");
    for (i, row) in e2e.iter().enumerate() {
        let Row {
            name,
            mreqs,
            wall_ms,
            acks_per_op: apw,
            ae_per_op: ae,
            ae_bytes_per_op: aeb,
            lat,
            net: _,
        } = row;
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let noisy = if is_noisy(name) { ", \"noisy\": true" } else { "" };
        let lat = lat
            .map(|(p50, p99, p999)| {
                format!(", \"p50_us\": {p50:.0}, \"p99_us\": {p99:.0}, \"p999_us\": {p999:.0}")
            })
            .unwrap_or_default();
        json.push_str(&format!(
            "    \"{name}\": {{ \"mreqs\": {mreqs:.4}, \"wall_ms\": {wall_ms:.1}, \"acks_per_op\": {apw:.3}, \"ae_per_op\": {ae:.4}, \"ae_bytes_per_op\": {aeb:.4}{lat}{noisy} }}{comma}\n"
        ));
    }
    json.push_str("  }\n}\n");
    if (coalesce && run_sim) || out_arg.is_some() {
        std::fs::write(&out_path, &json).expect("write BENCH json");
        eprintln!("[throughput] wrote {out_path}");
    } else {
        // Comparison probes must never clobber the committed baseline: a
        // --no-coalesce run changes the numbers' meaning, and a run
        // without the sim rows (--transport threaded|tcp) would *erase*
        // the deterministic baselines the regression diff guards.
        eprintln!("[throughput] probe run without --out: not overwriting {out_path}");
    }
}
