//! Replay: push this workload's generated keys, values and message mix
//! through single layers' public functions and time each call from
//! outside. The traced run multiplies these costs by its measured per-op
//! counts to predict CPU per op (the reconciliation line).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use kite::api::{Completion, Op, OpOutput};
use kite::wire::{self, ClientFrame};
use kite::Msg;
use kite_common::{Epoch, Key, Lc, NodeId, OpId, SessionId, Val};
use kite_kvs::{DurabilitySink, Store};

/// Nanoseconds per call of each replayed layer function.
#[derive(Debug, Default, Clone, Copy)]
pub struct Costs {
    pub encode_ns_per_msg: f64,
    pub decode_ns_per_msg: f64,
    /// Encode + decode of one op's submit frame and its completion frame.
    pub client_frame_ns: f64,
    pub fast_write_ns: f64,
    pub apply_max_ns: f64,
    pub stamp_apply_ns: f64,
    pub view_ns: f64,
    /// `Wal` staging of one record (the store's durability sink call).
    pub record_ns: f64,
    pub hist_record_ns: f64,
}

const ROUNDS: usize = 5;

/// Median over [`ROUNDS`] of `f`'s wall time divided by `calls`.
fn per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let s = Instant::now();
            f();
            s.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    t.sort_by(|a, b| a.total_cmp(b));
    t[ROUNDS / 2]
}

/// The peer messages one op puts on the wire to each of the two other
/// replicas (request and reply): relaxed writes broadcast and collect an
/// ack, releases write and ack, acquires read and reply, RMWs run a Paxos
/// round. Relaxed reads stay local.
fn msgs_for(op: &Op, rid: u64, out: &mut Vec<Msg>) {
    let lc = Lc::new(rid, NodeId(1));
    let opid = OpId { session: SessionId::new(NodeId(0), 0), seq: rid };
    for _peer in 0..2 {
        match op {
            Op::Read { .. } => {}
            Op::Write { key, val } => {
                out.push(Msg::EsWrite { rid, key: *key, val: val.clone(), lc });
                out.push(Msg::Ack { rid });
            }
            Op::Release { key, val } => {
                out.push(Msg::WriteMsg { rid, key: *key, val: val.clone(), lc });
                out.push(Msg::Ack { rid });
            }
            Op::Acquire { key } => {
                out.push(Msg::ReadReq { rid, key: *key, acq: Some(opid) });
                out.push(Msg::ReadRep { rid, val: Val::from_u64(rid), lc, delinquent: false });
            }
            Op::Faa { key, .. } | Op::CasWeak { key, .. } | Op::CasStrong { key, .. } => {
                out.push(Msg::Propose { rid, key: *key, slot: rid, ballot: lc, op: opid });
                out.push(Msg::AcceptRep {
                    rid,
                    ballot: lc,
                    ok: true,
                    promised: lc,
                    delinquent: false,
                });
            }
        }
    }
}

/// Time every layer on `ops` (this workload's generated ops), batching
/// peer messages `per_envelope` to a frame as the run measured. `wal_dir`
/// is a scratch directory for the replayed WAL, removed afterwards.
pub fn replay(ops: &[Op], per_envelope: f64, latencies_ns: &[u64], wal_dir: &Path) -> Costs {
    let mut c = Costs::default();

    // wire: peer frames.
    let mut msgs = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        msgs_for(op, i as u64 + 1, &mut msgs);
    }
    let batch = (per_envelope.round() as usize).clamp(1, wire::MAX_SEQ);
    let mut frames = Vec::with_capacity(msgs.len() * 48);
    c.encode_ns_per_msg = per_call(msgs.len(), || {
        frames.clear();
        for chunk in msgs.chunks(batch) {
            wire::encode_frame(NodeId(1), 0, chunk, &mut frames);
        }
        black_box(&frames);
    });
    let mut into = Vec::with_capacity(batch);
    c.decode_ns_per_msg = per_call(msgs.len(), || {
        let mut pos = 0;
        while pos + 4 <= frames.len() {
            let len =
                u32::from_le_bytes(frames[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            into.clear();
            wire::decode_frame_body(&frames[pos + 4..pos + 4 + len], &mut into)
                .expect("replayed frame");
            black_box(&into);
            pos += 4 + len;
        }
    });

    // wire: client frames (submit from the client, completion back).
    let completions: Vec<ClientFrame> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let output = match op {
                Op::Read { key } | Op::Acquire { key } => OpOutput::Value(Val::from_u64(key.0)),
                Op::Faa { .. } => OpOutput::Faa(i as u64),
                _ => OpOutput::Done,
            };
            ClientFrame::Completion(Completion {
                op_id: OpId { session: SessionId::new(NodeId(0), 0), seq: i as u64 },
                op: op.clone(),
                output,
                invoked_at: i as u64,
                completed_at: i as u64 + 1,
            })
        })
        .collect();
    let mut buf = Vec::with_capacity(256);
    c.client_frame_ns = per_call(ops.len(), || {
        for (op, done) in ops.iter().zip(&completions) {
            for f in [&ClientFrame::Submit(op.clone()), done] {
                buf.clear();
                wire::encode_client_frame(f, &mut buf);
                black_box(wire::decode_client_frame(&buf[4..]).expect("replayed client frame"));
            }
        }
    });

    // kvs: the store's apply paths on the generated writes and reads.
    let writes: Vec<(Key, Val)> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Write { key, val } | Op::Release { key, val } => Some((*key, val.clone())),
            _ => None,
        })
        .collect();
    let reads: Vec<Key> = ops
        .iter()
        .filter(|op| matches!(op, Op::Read { .. } | Op::Acquire { .. }))
        .map(Op::key)
        .collect();
    let keys = ops.iter().map(|op| op.key().0).collect::<std::collections::HashSet<_>>().len();
    // Merkle digests are off in every workload: span 0, as the nodes run.
    let store = Store::with_leaf_span(keys, 0);
    c.fast_write_ns = per_call(writes.len(), || {
        for (k, v) in &writes {
            black_box(store.fast_write(*k, v, NodeId(0), Epoch(0)));
        }
    });
    let mut version = 1 << 20;
    c.apply_max_ns = per_call(writes.len(), || {
        version += 1;
        let lc = Lc::new(version, NodeId(1));
        for (k, v) in &writes {
            black_box(store.apply_max(*k, v, lc));
        }
    });
    c.stamp_apply_ns = per_call(writes.len(), || {
        for (k, v) in &writes {
            black_box(store.stamp_apply(*k, v, Lc::ZERO, NodeId(0), None));
        }
    });
    c.view_ns = per_call(reads.len(), || {
        for k in &reads {
            black_box(store.view(*k));
        }
    });

    // wal: the staging call the store's sink makes per applied write.
    let _ = std::fs::remove_dir_all(wal_dir);
    let wal = kite_wal::Wal::open(wal_dir, 100_000, 3_600_000_000_000, Box::new(|_| {}))
        .expect("open replay WAL");
    let lc = Lc::new(1, NodeId(0));
    c.record_ns = per_call(writes.len(), || {
        for (k, v) in &writes {
            wal.record(*k, lc, v).expect("replayed record fits");
        }
    });
    wal.close();
    let _ = std::fs::remove_dir_all(wal_dir);

    // metrics: the latency histogram's record.
    let hist = kite_metrics::Histogram::new();
    c.hist_record_ns = per_call(latencies_ns.len(), || {
        for &l in latencies_ns {
            hist.record(l);
        }
    });
    c
}
