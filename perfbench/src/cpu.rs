//! This process's CPU clock.
//!
//! The benchmark times with CPU time rather than wall time: the host is
//! shared, and wall time counts the slices other processes were given
//! while the benchmark waited for a core. The platform's work never
//! blocks (devices, links and disks are simulated on a virtual clock), so
//! CPU time is the time the work itself took.

use std::os::raw::{c_int, c_long};

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// A reading of the process CPU clock (all threads), in seconds.
#[derive(Clone, Copy, Debug)]
pub struct CpuInstant(f64);

impl CpuInstant {
    /// The process's CPU time so far.
    pub fn now() -> CpuInstant {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs
        // on the Linux targets this runs on) that lives across the call,
        // and `clock_gettime` writes only to it.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the process CPU clock is always readable");
        CpuInstant(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }

    /// CPU seconds since this reading.
    pub fn elapsed_s(&self) -> f64 {
        Self::now().0 - self.0
    }

    /// CPU milliseconds since this reading.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_s() * 1e3
    }

    /// Seconds from `earlier` to this reading.
    pub fn since(&self, earlier: CpuInstant) -> f64 {
        self.0 - earlier.0
    }
}

/// CPU seconds of one pass of a fixed calibration kernel: integer
/// hashing, sorting, binary search and decimal formatting over a 32 KiB
/// table on the stack. It allocates nothing, so the heap a workload
/// leaves behind cannot change its time; only the host's speed can.
/// With `threads > 1`, that many passes run at once, one per thread, and
/// the result is the mean per pass: the speed of the cores a parallel
/// workload runs on.
pub fn kernel_s(threads: usize) -> f64 {
    let threads = threads.max(1);
    let start = CpuInstant::now();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| std::hint::black_box(kernel()));
        }
        std::hint::black_box(kernel());
    });
    start.elapsed_s() / threads as f64
}

fn kernel() -> u64 {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut table = [0u64; 4096];
    let mut digits = [0u8; 20];
    let mut acc = 0u64;
    for round in 0..24u64 {
        for slot in table.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *slot = state % 1_000_000_007;
        }
        table.sort_unstable();
        for probe in 0..4096u64 {
            let key = (probe * 244_091 + round) % 1_000_000_007;
            let at = table.partition_point(|&v| v < key);
            let mut n = table[at.min(table.len() - 1)] ^ key;
            let mut len = 0;
            loop {
                digits[len] = b'0' + (n % 10) as u8;
                n /= 10;
                len += 1;
                if n == 0 {
                    break;
                }
            }
            acc = digits[..len]
                .iter()
                .fold(acc ^ 0xcbf2_9ce4_8422_2325, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                });
        }
    }
    acc
}
