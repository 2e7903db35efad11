//! Machine-speed calibration.
//!
//! On a shared host, each CPU the benchmark runs on flips between a fast
//! and a slow state (up to 1.8x apart) several times a second, the two CPUs
//! largely independently, and the share of time spent slow drifts over
//! minutes. So identical work takes a different time on every run, and an
//! operation of several seconds averages over a different mix of states
//! each time.
//!
//! The calibrator pins the workload to as many CPUs as it has pool workers
//! and runs one sampler thread pinned to each of those CPUs. Every
//! [`INTERVAL`], a sampler times a fixed reference kernel, written in this
//! package so that no library change can move it, and records the CPU's
//! speed: the kernel's nominal time over its measured time. An operation's
//! wall time is multiplied by the mean speed of the samples taken while it
//! ran (see [`Speeds::scale`]): the result is the time it would take on CPUs
//! that always run the reference at its nominal speed. A sampler on the
//! workload's own CPU sees the state the workload runs in, which a sample
//! taken between operations, or on another CPU, does not.
//!
//! The host also deschedules a busy guest CPU now and then to run other
//! guests: with both CPUs busy, over a quarter of their time was stolen
//! this way, and the reference, timed only when its CPU runs, cannot see
//! it. Each sample's speed is therefore also multiplied by the share of
//! the time since the previous sample that its CPU was not stolen, read
//! from the CPU's `steal` counter in `/proc/stat`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two samples of one sampler. A sample takes 1.2 to 1.7 ms
/// of its CPU, so the workload loses 2.5 to 3.5% of it.
const INTERVAL: Duration = Duration::from_millis(50);

/// Samples this long before an operation starts and after it ends also set
/// its scale, so that an operation shorter than [`INTERVAL`] has some.
const PAD_S: f64 = 0.1;

const N: usize = 64;
const TABLE: usize = 1 << 16;
const SORTED: usize = 12_500;

/// Nominal time of each part of the reference kernel (matrix product,
/// binary searches, sort), seconds: its time in the fast state on a 2.1 GHz
/// Xeon guest (the 10th percentile of its runs).
const NOMINAL_S: [f64; 3] = [0.000_080, 0.000_330, 0.000_210];

/// The reference kernel. Its buffers are allocated once: a kernel that
/// allocated would time the allocator, whose state the workload changes.
struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    table: Vec<u64>,
    keys: Vec<u64>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            a: (0..N * N).map(|i| (i % 7) as f32 * 0.25).collect(),
            b: (0..N * N).map(|i| (i % 5) as f32 * 0.5).collect(),
            c: vec![0.0; N * N],
            table: (0..TABLE as u64).map(|i| i * 3).collect(),
            keys: vec![0; SORTED],
        }
    }

    fn matmul(&mut self) {
        let (a, b, c) = (&self.a, &self.b, &mut self.c);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        black_box(c);
    }

    fn search(&mut self) {
        let mut x = 12_345u64;
        let mut found = 0usize;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            found += usize::from(
                self.table
                    .binary_search(&((x >> 40) % (3 * TABLE as u64)))
                    .is_ok(),
            );
        }
        black_box(found);
    }

    fn sort(&mut self) {
        for (i, k) in self.keys.iter_mut().enumerate() {
            *k = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        self.keys.sort_unstable();
        black_box(&self.keys);
    }

    /// The CPU's speed now: the mean, over the kernel's three parts, of the
    /// part's nominal time over its faster time of two runs. Each run is
    /// shorter than a scheduler slice, so the faster of two is rarely one
    /// the workload's thread interrupted.
    fn speed(&mut self) -> f64 {
        let parts: [fn(&mut Self); 3] = [Self::matmul, Self::search, Self::sort];
        let mut sum = 0.0;
        for (part, nominal) in parts.iter().zip(NOMINAL_S) {
            let fastest = (0..2)
                .map(|_| {
                    let start = Instant::now();
                    part(self);
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            sum += nominal / fastest;
        }
        sum / parts.len() as f64
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list` in
/// `/proc/self/status`), in increasing order.
fn allowed_cpus() -> Vec<usize> {
    let list = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|l| l.trim().to_string())
        })
        .unwrap_or_default();
    let mut cpus = Vec::new();
    for range in list.split(',').filter(|r| !r.is_empty()) {
        let mut ends = range.split('-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(lo)), None) => cpus.push(lo),
            (Some(Ok(lo)), Some(Ok(hi))) => cpus.extend(lo..=hi),
            _ => {}
        }
    }
    if cpus.is_empty() {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        cpus.extend(0..n);
    }
    cpus
}

/// Restricts the calling thread, and the threads it spawns afterwards, to
/// `cpus` (`sched_setaffinity` on itself). False when that fails.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin(cpus: &[usize]) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < 64 * WORDS) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    let ret: isize;
    // SAFETY: sched_setaffinity(0, len, mask) reads `len` bytes at `mask`,
    // which outlives the call, and writes no memory of this process; the
    // `syscall` instruction clobbers only rax (the result), rcx and r11.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin(_cpus: &[usize]) -> bool {
    false
}

/// Clock ticks per second of the counters in `/proc/stat` (`USER_HZ`,
/// 100 on every Linux architecture the benchmark runs on).
const USER_HZ: f64 = 100.0;

/// Seconds the hypervisor has run other guests while `cpu` (every CPU of
/// this guest, summed, for `None`) was waiting to run: the `steal` column of
/// its line in `/proc/stat`; 0 if unreadable.
pub fn stolen_s(cpu: Option<usize>) -> f64 {
    let prefix = cpu.map_or("cpu ".to_string(), |c| format!("cpu{c} "));
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(&prefix))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// One sample of one CPU.
#[derive(Clone, Copy)]
struct Sample {
    /// Seconds since the calibrator started, mid-kernel.
    at: f64,
    /// The reference's speed, times the share of the time since the
    /// previous sample that the CPU was not stolen.
    speed: f64,
    /// The share of the time since the previous sample that the hypervisor
    /// ran other guests instead of this CPU.
    stolen: f64,
}

type Samples = Vec<Sample>;

/// Running samplers. Dropping it stops and joins them.
pub struct Calibrator {
    epoch: Instant,
    /// The CPUs the workload and the samplers are pinned to.
    cpus: Vec<usize>,
    /// Whether pinning succeeded; without it the samplers still run, on
    /// whatever CPUs the scheduler picks.
    pinned: bool,
    stop: Arc<AtomicBool>,
    samplers: Vec<JoinHandle<Samples>>,
}

impl Calibrator {
    /// Pins the calling thread to the first `workers` CPUs it may use and
    /// starts a sampler pinned to each; returns once every sampler has
    /// taken its first sample. Call it before the workload creates any
    /// thread, so that pool workers inherit the pinning.
    pub fn start(workers: usize) -> Self {
        let mut cpus = allowed_cpus();
        cpus.truncate(workers.max(1));
        let pinned = pin(&cpus);
        let epoch = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicUsize::new(0));
        let samplers = cpus
            .iter()
            .map(|&cpu| {
                let (stop, ready) = (Arc::clone(&stop), Arc::clone(&ready));
                std::thread::spawn(move || {
                    pin(&[cpu]);
                    let mut reference = Reference::new();
                    let mut samples = Vec::new();
                    let mut last = (0.0, stolen_s(Some(cpu)));
                    while !stop.load(Ordering::Relaxed) {
                        let start = epoch.elapsed().as_secs_f64();
                        let speed = reference.speed();
                        let end = epoch.elapsed().as_secs_f64();
                        let now = (end, stolen_s(Some(cpu)));
                        let stolen = ((now.1 - last.1) / (now.0 - last.0)).clamp(0.0, 0.9);
                        last = now;
                        samples.push(Sample {
                            at: (start + end) / 2.0,
                            speed: speed * (1.0 - stolen),
                            stolen,
                        });
                        if samples.len() == 1 {
                            ready.fetch_add(1, Ordering::Release);
                        }
                        std::thread::sleep(INTERVAL);
                    }
                    samples
                })
            })
            .collect();
        let cal = Calibrator {
            epoch,
            cpus,
            pinned,
            stop,
            samplers,
        };
        while ready.load(Ordering::Acquire) < cal.samplers.len() {
            std::thread::sleep(Duration::from_millis(1));
        }
        cal
    }

    /// Seconds since the calibrator started: the clock operations are
    /// timed against.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Times `f`: `(start, wall seconds, result)`.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (f64, f64, R) {
        let start = self.now();
        let out = f();
        (start, self.now() - start, out)
    }

    /// Stops the samplers and returns every sample, in time order.
    pub fn finish(mut self) -> Speeds {
        let mut samples = self.join();
        samples.sort_by(|a, b| a.at.total_cmp(&b.at));
        Speeds {
            samples,
            cpus: std::mem::take(&mut self.cpus),
            pinned: self.pinned,
        }
    }

    fn join(&mut self) -> Samples {
        self.stop.store(true, Ordering::Relaxed);
        self.samplers
            .drain(..)
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        self.join();
    }
}

/// Every speed sample of a run, in time order.
pub struct Speeds {
    samples: Samples,
    cpus: Vec<usize>,
    pinned: bool,
}

impl Speeds {
    /// Scale for an operation that started at `start` and took `wall`
    /// seconds: the mean speed of the samples from [`PAD_S`] before it to
    /// [`PAD_S`] after it, on every CPU; the nearest sample's when there is
    /// none. Multiply `wall` by it.
    pub fn scale(&self, start: f64, wall: f64) -> f64 {
        let (lo, hi) = (start - PAD_S, start + wall + PAD_S);
        let first = self.samples.partition_point(|s| s.at < lo);
        let last = self.samples.partition_point(|s| s.at <= hi);
        if first < last {
            let window = &self.samples[first..last];
            return window.iter().map(|s| s.speed).sum::<f64>() / window.len() as f64;
        }
        let nearest = first.min(self.samples.len().saturating_sub(1));
        self.samples.get(nearest).map_or(1.0, |s| s.speed)
    }

    /// The calibration, for the run fingerprint: the CPUs, whether the
    /// workload was pinned to them, the sample count, the median speed and
    /// the mean share of time stolen.
    pub fn describe(&self) -> String {
        let speeds: Vec<f64> = self.samples.iter().map(|s| s.speed).collect();
        let stolen: Vec<f64> = self.samples.iter().map(|s| s.stolen).collect();
        format!(
            "{{\"cpus\": {:?}, \"pinned\": {}, \"samples\": {}, \"median_speed\": {:.4}, \
             \"stolen_share\": {:.4}}}",
            self.cpus,
            self.pinned,
            speeds.len(),
            crate::stats::median(&speeds),
            crate::stats::mean(&stolen)
        )
    }
}
