//! Host-side measurements of the benchmark process: CPU time from
//! `getrusage`, peak resident set from `/proc`, the core count, and the
//! host's current speed from a fixed calibration kernel.

/// User plus system CPU seconds consumed by this process so far (all
/// threads), from `getrusage(RUSAGE_SELF)`.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a correctly laid out, writable `struct rusage`
    // for 64-bit Linux, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Panics
///
/// Panics if `/proc/self/status` has no parsable `VmHWM` line.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    pif_lab::default_threads()
}

/// `u64` words in each calibration thread's table (128 KiB: within the
/// private L2, so a round times the core's speed, not page placement).
const CALIBRATION_WORDS: usize = 1 << 14;

/// Table updates of one calibration thread per round.
const CALIBRATION_STEPS: usize = 1 << 22;

/// CPU seconds of one calibration thread's round on the reference host
/// (a 2-vCPU Intel Xeon virtual machine with idle neighbours, release
/// build).
pub const CALIBRATION_REF_S: f64 = 0.025;

/// CPU seconds consumed by the calling thread so far
/// (`CLOCK_THREAD_CPUTIME_ID`).
#[cfg(target_os = "linux")]
fn thread_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a correctly laid out, writable `struct timespec`
    // for 64-bit Linux, and the clock id is valid.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 / 1e9
}

/// Fixed work, independent of the code under test, run on every core
/// the workload uses. On a shared host, neighbours' load can slow a
/// core down (CPU time per unit of work rises, unlike time lost waiting
/// for a core); timing these rounds between passes measures that
/// slowdown, which slows the passes around them alike.
#[derive(Debug)]
pub struct Calibrator {
    tables: Vec<Vec<u64>>,
}

impl Calibrator {
    /// A calibrator running `threads` kernels at once.
    pub fn new(threads: usize) -> Calibrator {
        Calibrator {
            tables: (0..threads.max(1))
                .map(|t| {
                    (0..CALIBRATION_WORDS as u64)
                        .map(|i| i ^ t as u64)
                        .collect()
                })
                .collect(),
        }
    }

    /// Runs one round: the mean over the threads of each one's own CPU
    /// seconds for the kernel.
    pub fn round(&mut self) -> f64 {
        let threads = self.tables.len() as f64;
        let cpu: f64 = std::thread::scope(|s| {
            let running: Vec<_> = self
                .tables
                .iter_mut()
                .map(|table| {
                    s.spawn(|| {
                        let c0 = thread_cpu_seconds();
                        std::hint::black_box(kernel(table));
                        thread_cpu_seconds() - c0
                    })
                })
                .collect();
            running
                .into_iter()
                .map(|t| t.join().expect("calibration kernel panicked"))
                .sum()
        });
        cpu / threads
    }
}

/// Dependent pseudo-random read-modify-writes with a data-dependent
/// branch: the mix of a cache model's lookups.
fn kernel(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x ^ acc) as usize & mask;
        let v = table[i];
        acc = if v & 1 == 0 {
            acc.wrapping_add(v)
        } else {
            acc.rotate_left(5) ^ v
        };
        table[i] = v.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ x;
    }
    acc
}
