//! Host facts recorded with every result, CPU-time probes, and the
//! generator's sub-millisecond sleep.
//!
//! The workspace carries no libc crate, so `getrusage(2)` and `prctl(2)`
//! are declared here by hand, as `kite_net::sys` does for epoll.

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

fn cpu_us(who: i32) -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a properly sized and aligned `struct rusage` that
    // lives across the call; getrusage only writes into it.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let t = |tv: Timeval| tv.sec as f64 * 1e6 + tv.usec as f64;
    t(ru.utime) + t(ru.stime)
}

/// User + system CPU of the whole process (cluster and generator), µs.
pub fn process_cpu_us() -> f64 {
    cpu_us(RUSAGE_SELF)
}

/// User + system CPU of the calling thread, µs.
pub fn thread_cpu_us() -> f64 {
    cpu_us(RUSAGE_THREAD)
}

/// Shrink the calling thread's timer slack to 1 ns, so its sleeps wake
/// within microseconds of their target instead of the default 50 µs late.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned-long argument and only
    // changes the calling thread's scheduling attribute.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub loadavg: String,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_else(|_| "unknown".into());
        Host { nproc, cpu_model, loadavg }
    }
}
