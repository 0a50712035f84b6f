//! Snapshots of the counters each layer already exposes on a running node
//! (`NodeRuntime::{counters, links, wal, shared}`), differenced across the
//! benchmark's phase boundaries.

use std::sync::atomic::Ordering;

use kite_common::NodeId;
use kite_net::NodeRuntime;

macro_rules! counts {
    ($($f:ident),* $(,)?) => {
        /// Monotone per-node counters, summed over the nodes read.
        #[derive(Default, Clone, Copy, Debug)]
        pub struct Counts { $(pub $f: u64,)* }

        impl Counts {
            pub fn plus(self, o: Counts) -> Counts {
                Counts { $($f: self.$f + o.$f,)* }
            }
            /// `self − earlier`; a counter that went backwards (a node
            /// replaced in between) contributes 0.
            pub fn since(self, earlier: Counts) -> Counts {
                Counts { $($f: self.$f.saturating_sub(earlier.$f),)* }
            }
        }
    };
}

counts! {
    completed, local_reads, slow_path_accesses, fast_releases, slow_releases, epoch_bumps,
    envelopes, msgs, acks, acks_coalesced, acks_batches,
    ae_digest_bytes, ae_merkle_reqs, ae_repair_vals, ae_repairs_applied, ae_repair_bytes,
    installs, stale_dropped, pulls,
    frames_out, frames_in, dropped_out, shed, connects, decode_errors,
    store_writes, wal_records, wal_fsyncs,
}

impl Counts {
    // ordering: monotone statistics read for reporting; Relaxed is exact
    // enough for a snapshot that is racy by nature.
    pub fn of(n: &NodeRuntime) -> Counts {
        let c = n.counters();
        let mut out = Counts {
            completed: c.completed.get(),
            local_reads: c.local_reads.get(),
            slow_path_accesses: c.slow_path_accesses.get(),
            fast_releases: c.fast_releases.get(),
            slow_releases: c.slow_releases.get(),
            epoch_bumps: c.epoch_bumps.get(),
            envelopes: c.envelopes_sent.get(),
            msgs: c.msgs_sent.get(),
            acks: c.acks_sent.get(),
            acks_coalesced: c.acks_coalesced.get(),
            acks_batches: c.msgs_batched.get(),
            ae_digest_bytes: c.ae_digest_bytes.get(),
            ae_merkle_reqs: c.ae_merkle_reqs.get(),
            ae_repair_vals: c.ae_repair_vals.get(),
            ae_repairs_applied: c.ae_repairs_applied.get(),
            ae_repair_bytes: c.ae_repair_bytes.get(),
            installs: c.membership_installs.get(),
            stale_dropped: c.stale_epoch_dropped.get(),
            pulls: c.membership_pulls.get(),
            store_writes: n.shared().store_probe.writes.get(),
            ..Counts::default()
        };
        let cfg = n.config();
        for peer in 0..cfg.nodes {
            for w in 0..cfg.workers_per_node {
                let l = n.links().link(NodeId(peer as u8), w);
                out.frames_out += l.frames_out.load(Ordering::Relaxed);
                out.frames_in += l.frames_in.load(Ordering::Relaxed);
                out.dropped_out += l.dropped_out.load(Ordering::Relaxed);
                out.shed += l.shed_full.load(Ordering::Relaxed);
                out.connects += l.connects.load(Ordering::Relaxed);
                out.decode_errors += l.decode_errors.load(Ordering::Relaxed);
            }
        }
        if let Some(wal) = n.wal() {
            let s = wal.stats();
            out.wal_records = s.records;
            out.wal_fsyncs = s.fsyncs;
        }
        out
    }

    /// Sum over every running node.
    pub fn of_all<'a>(nodes: impl IntoIterator<Item = &'a NodeRuntime>) -> Counts {
        nodes.into_iter().map(Counts::of).fold(Counts::default(), Counts::plus)
    }
}
