//! Client-side benchmark of Kite over loopback TCP.
//!
//! One command launches a 3-node `kite_net::launch_local_cluster` in
//! process, drives it from one generator thread over two pipelined
//! `RemoteSession`s (to nodes 0 and 1), checks every output, and prints
//! end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
//! Layers are timed only from outside: around the benchmark's calls into
//! their public functions, from the counters they already expose, and by
//! replaying this workload's generated inputs through them.

pub mod counts;
pub mod driver;
pub mod host;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
