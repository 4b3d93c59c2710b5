//! Host control and time normalisation.
//!
//! The benchmark host's CPU speed drifts by tens of percent within one
//! run, so no raw wall-clock time is reported as a gated metric. Instead:
//!
//! * the whole process is pinned to one CPU before any thread starts, so
//!   every worker the program spawns shares that CPU (and `threads: 0`
//!   defaults resolve to one worker);
//! * after every timed step a fixed, compute-bound reference kernel runs
//!   (about 1 ms, 4 KiB working set, no program code);
//! * each step's time is scaled by `NOMINAL_REF_MS / max(reference sample
//!   before, reference sample after)`. A contention burst that slows a
//!   step usually reaches into one of its neighbouring samples; the larger
//!   sample corrects for it in full where their mean would correct half
//!   (across 200-op segments of one one_click run, the spread of busy time
//!   was 1.3% with the larger sample and 3.1% with the mean).
//!
//! A normalised time is therefore expressed in "reference milliseconds":
//! how long the step takes on a host on which the reference kernel takes
//! exactly `NOMINAL_REF_MS`.

use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel duration the normalised times are expressed against:
/// the kernel's typical duration on the 2-vCPU Xeon host the benchmark
/// was tuned on, so normalised values read close to raw ones there.
pub const NOMINAL_REF_MS: f64 = 1.0;

/// Block size of the reference kernel (4 KiB of `f64`).
const REF_WORDS: usize = 512;
/// Sort-and-scan passes per reference sample.
const REF_PASSES: u32 = 48;
/// Threshold scans per pass.
const REF_THRESHOLDS: usize = 9;

#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

/// Linux `SCHED_BATCH`.
const SCHED_BATCH: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Puts the calling thread, and every thread it spawns afterwards, under
/// `SCHED_BATCH`: a woken thread no longer preempts the running one. On
/// one CPU this makes the hand-off between the benchmark's client and the
/// program's worker threads repeatable: the client submits a whole wave
/// before a worker runs, and a worker finishes its batch before the client
/// collects the replies, instead of the interleaving depending on the
/// scheduler's wakeup heuristics.
pub fn batch_scheduling() -> Result<(), String> {
    let param = SchedParam { priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` (priority 0, as
    // SCHED_BATCH requires) and pid 0 names the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_BATCH, &param) };
    if rc != 0 {
        return Err(format!(
            "sched_setscheduler failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on. Returns that CPU's number.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut set = CpuSet { bits: [0; 16] };
    // SAFETY: `set` is a properly sized, writable `cpu_set_t` (1024 bits)
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024usize)
        .rev()
        .find(|&c| set.bits[c / 64] & (1u64 << (c % 64)) != 0)
        .ok_or("the affinity mask names no CPU")?;
    let mut one = CpuSet { bits: [0; 16] };
    one.bits[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `one` is a valid `cpu_set_t` naming exactly one allowed CPU;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The program-independent reference kernel: regenerate a 512-value
/// block from an xorshift stream, sort it, then run threshold scans with
/// branchy partial sums over it, and repeat. Its working set is a few KiB
/// (cache-resident) and its work is fixed, so its duration tracks the
/// host's speed for sort- and scan-heavy code like model fitting and
/// query execution, and nothing else.
struct RefKernel {
    block: Vec<f64>,
}

impl RefKernel {
    fn new() -> RefKernel {
        RefKernel {
            block: vec![0.0; REF_WORDS],
        }
    }

    fn run(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut best = 0.0f64;
        for pass in 0..black_box(REF_PASSES) {
            let block = black_box(&mut self.block);
            for v in block.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            }
            block.sort_by(f64::total_cmp);
            for k in 0..REF_THRESHOLDS {
                let thr = (k as f64 + 0.5) / REF_THRESHOLDS as f64 + pass as f64 * 1e-9;
                let (mut left, mut right, mut n_left) = (0.0, 0.0, 0usize);
                for &v in black_box(&*block) {
                    if v < thr {
                        left += v;
                        n_left += 1;
                    } else {
                        right += v;
                    }
                }
                best = best.max(left * left / n_left.max(1) as f64 + right);
            }
        }
        x ^ best.to_bits()
    }

    /// One timed reference sample, in milliseconds.
    fn sample_ms(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.run());
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// A step's duration, raw and reference-normalised, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub raw_s: f64,
    pub norm_s: f64,
}

/// Times steps and normalises each by the larger reference sample around it.
pub struct NormClock {
    kernel: RefKernel,
    last_ref_ms: f64,
    samples: Vec<f64>,
}

impl NormClock {
    /// Warms the kernel (so program cache state cannot move it) and takes
    /// the first reference sample.
    pub fn new() -> NormClock {
        let mut kernel = RefKernel::new();
        for _ in 0..20 {
            kernel.sample_ms();
        }
        let first = kernel.sample_ms();
        NormClock {
            kernel,
            last_ref_ms: first,
            samples: vec![first],
        }
    }

    /// Runs `f`, then one reference sample, and returns `f`'s result with
    /// its raw and normalised duration.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let after = self.kernel.sample_ms();
        self.samples.push(after);
        let ref_ms = self.last_ref_ms.max(after);
        self.last_ref_ms = after;
        (
            out,
            Timing {
                raw_s,
                norm_s: raw_s * NOMINAL_REF_MS / ref_ms,
            },
        )
    }

    /// Every reference sample taken so far, in milliseconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile of `xs` (`q` in [0, 1]); NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}
