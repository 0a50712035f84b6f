//! Per-node protocol event counters.
//!
//! The evaluation reads its results off these: throughput in million
//! requests per second (Fig 5–9), the local-read share, fast/slow releases,
//! epoch bumps and the message amplification §6.3 batching removes. Each
//! field is a [`kite_metrics::Counter`] (cache-padded, bumped with a Relaxed
//! `fetch_add`), and [`ProtoCounters::TABLE`] names every field, generated
//! from the same list as the struct so no counter can exist unexported.

use kite_metrics::Counter;

/// Declares `ProtoCounters` and its name table from one field list.
macro_rules! proto_counters {
    (
        $(#[$meta:meta])*
        pub struct $ty:ident {
            $( $(#[$fmeta:meta])* pub $name:ident: Counter, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $ty {
            $( $(#[$fmeta])* pub $name: Counter, )*
        }

        impl $ty {
            /// Every counter as `(field name, accessor)`, in declaration
            /// order: the one list exporters (the scrape endpoint) walk.
            pub const TABLE: &'static [(&'static str, fn(&$ty) -> &Counter)] =
                &[$( (stringify!($name), |c| &c.$name), )*];
        }
    };
}

proto_counters! {
    /// Per-node protocol event counters, used by benches to report message
    /// amplification and fast/slow-path transitions alongside throughput.
    #[derive(Default, Debug)]
    pub struct ProtoCounters {
        /// Completed client requests (any type).
        pub completed: Counter,
        /// Relaxed reads served locally (ES fast path).
        pub local_reads: Counter,
        /// Relaxed accesses that had to take the slow path (out-of-epoch keys).
        pub slow_path_accesses: Counter,
        /// Releases that executed the fast-path barrier (all-acked).
        pub fast_releases: Counter,
        /// Releases that fell back to the slow-path barrier (DM-set broadcast).
        pub slow_releases: Counter,
        /// Acquires that discovered delinquency and bumped the machine epoch.
        pub epoch_bumps: Counter,
        /// Network envelopes sent (after batching).
        pub envelopes_sent: Counter,
        /// Protocol messages sent (before batching).
        pub msgs_sent: Counter,
        /// Ack *messages* sent: single `Ack`s, delinquent `WriteAck`s, and each
        /// `AckBatch` counted once. `acks_sent / writes` is the
        /// acks-per-write figure the throughput harness reports.
        pub acks_sent: Counter,
        /// Plain acks that rode inside an `AckBatch` (rids coalesced).
        pub acks_coalesced: Counter,
        /// `AckBatch` messages emitted (each replacing `acks_coalesced /
        /// msgs_batched` individual acks on average).
        pub msgs_batched: Counter,
        /// Anti-entropy digest messages sent (`nodes − 1` per sweep: one digest
        /// is broadcast to every peer).
        pub ae_digests_sent: Counter,
        /// `(key, lc)` entries carried inside sent digests (the digest "bytes"
        /// figure: 16 bytes per entry on the wire model).
        pub ae_digest_keys: Counter,
        /// Merkle-mode anti-entropy summaries sent (the top-level sweep
        /// broadcast and every drill-down child summary, each counted once).
        pub ae_summaries_sent: Counter,
        /// Merkle drill-down requests sent (a summary range mismatched).
        pub ae_merkle_reqs: Counter,
        /// Estimated wire bytes of digest-plane anti-entropy traffic sent:
        /// flat digests, Merkle summaries and drill-down requests (repair
        /// pulls/values are excluded — repair traffic is proportional to real
        /// divergence in either mode). This is the figure the Merkle mode
        /// exists to shrink: O(log store) per steady-state sweep instead of
        /// O(store) per sweep cycle.
        pub ae_digest_bytes: Counter,
        /// Anti-entropy repair-pull requests sent (digest receiver was behind).
        pub ae_repair_reqs: Counter,
        /// Anti-entropy repair values sent (pull answers, stale-sender pushes,
        /// and commit-completion fills routed through the subsystem).
        pub ae_repair_vals: Counter,
        /// Repair values whose `apply_max` actually advanced the local store —
        /// real divergence healed, as opposed to already-converged traffic.
        pub ae_repairs_applied: Counter,
        /// Estimated wire bytes of repair *values* sent (the complement of
        /// `ae_digest_bytes`: divergence-proportional payload, not sweep
        /// overhead). Summed across a learner's peers this is the bulk-sync
        /// transfer cost of a catch-up — the figure `scripts/bench.sh`
        /// reports per join.
        pub ae_repair_bytes: Counter,
        /// Memberships installed into the live cell (commit applies, WAL
        /// replay, and anti-entropy repairs of the membership key that carried
        /// a strictly newer epoch).
        pub membership_installs: Counter,
        /// Envelopes dropped at the receive gate because the sender stamped a
        /// membership epoch older than ours (each drop is answered with a
        /// membership repair push).
        pub stale_epoch_dropped: Counter,
        /// Membership pulls sent after seeing a sender stamp a *newer* epoch
        /// than ours (we process the batch but ask for the config we're
        /// missing).
        pub membership_pulls: Counter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_every_field() {
        // Every field is one padded counter, so the struct's size counts
        // its fields; a field missing from the table would show here.
        assert_eq!(
            ProtoCounters::TABLE.len() * std::mem::size_of::<Counter>(),
            std::mem::size_of::<ProtoCounters>()
        );
    }
}
