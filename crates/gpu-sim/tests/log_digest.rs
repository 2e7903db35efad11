//! Frozen digests of the engine's logs.
//!
//! One 10-context run (a victim stream with host gaps that yields on every
//! completion, a monitored auto-repeat sampler, and eight auto-repeat hogs
//! that stop partway through) is simulated under both schedulers, once
//! clean and once under an active fault plan. The kernel log and counter
//! trace are hashed bit for bit and compared with constants recorded from
//! the engine before its scheduling step was made allocation-free. The
//! report goldens only exercise the clean time-sliced path, so this is the
//! test that pins the MPS scheduler and the fault branches (launch failures
//! with retry backoff, preemption bursts, dropped and duplicated slices,
//! counter jitter).

use gpu_sim::{FaultPlan, Gpu, GpuConfig, KernelDesc, KernelFootprint, RetryPolicy, SchedulerMode};

/// Simulated time at which the hogs stop relaunching.
const HOGS_STOP_US: f64 = 60_000.0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed, so adjacent strings cannot run into each other.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn footprint(
    cfg: &GpuConfig,
    us: f64,
    read: f64,
    write: f64,
    tex: f64,
    ws: f64,
) -> KernelFootprint {
    KernelFootprint {
        flops: cfg.compute_throughput * us,
        read_bytes: read,
        write_bytes: write,
        tex_read_bytes: tex,
        working_set: ws,
        tex_working_set: tex * 0.25,
    }
}

/// Simulates the 10-context scenario; returns the FNV-1a digest of the final
/// clock and both logs, plus the number of kernel records and slices.
fn run(mode: SchedulerMode, faults: FaultPlan) -> (u64, usize, usize) {
    let cfg = GpuConfig::gtx_1080_ti().with_seed(2024).with_faults(faults);
    let mut gpu = Gpu::new(cfg.clone(), mode);
    let victim = gpu.add_context("victim");
    let spy = gpu.add_context("spy");
    let hogs: Vec<_> = (0..8).map(|h| gpu.add_context(format!("hog{h}"))).collect();

    gpu.set_yield_on_completion(victim, true);
    let mib = 1024.0 * 1024.0;
    for iter in 0..6 {
        for op in 0..10 {
            let (tag, fp) = match op % 4 {
                0 => (
                    "Conv2D",
                    footprint(&cfg, 1600.0, 2.0 * mib, 0.5 * mib, 1.5 * mib, mib),
                ),
                1 => (
                    "MatMul",
                    footprint(&cfg, 1000.0, 3.0 * mib, 0.2 * mib, 0.0, 1.5 * mib),
                ),
                2 => (
                    "Relu",
                    footprint(&cfg, 160.0, 0.5 * mib, 0.5 * mib, 0.0, 0.25 * mib),
                ),
                _ => (
                    "ApplyAdam",
                    footprint(&cfg, 480.0, mib, mib, 0.0, 2.5 * mib),
                ),
            };
            let name = format!("it{iter}_op{op}");
            gpu.enqueue(
                victim,
                KernelDesc::new(name, 28 + 8 * op, 1024, fp).with_tag(tag),
            );
        }
        gpu.enqueue_host_gap(victim, 1500.0 + 250.0 * iter as f64);
    }

    gpu.monitor(spy);
    gpu.set_launch_retry(
        spy,
        RetryPolicy {
            base_us: 20.0,
            factor: 2.0,
            cap_us: 400.0,
        },
    );
    let spy_fp = footprint(
        &cfg,
        0.2,
        64.0 * 1024.0,
        32.0 * 1024.0,
        16.0 * 1024.0,
        256.0 * 1024.0,
    );
    gpu.set_auto_repeat(spy, KernelDesc::new("spy", 4, 64, spy_fp));

    for (h, &hog) in hogs.iter().enumerate() {
        let blocks = [4, 8, 12, 16, 20, 24, 28, 32][h];
        let fp = footprint(
            &cfg,
            2.0 + 0.25 * h as f64,
            0.3 * mib,
            0.1 * mib,
            0.0,
            0.4 * mib,
        );
        gpu.set_auto_repeat(hog, KernelDesc::new(format!("hog{h}"), blocks, 128, fp));
    }

    // Bounded steps until mid-run (deadline-clamped slices), then the hogs
    // stop and the drain loop finishes with only the victim and the sampler:
    // two runnable contexts, or one during the victim's host gaps.
    gpu.run_until(HOGS_STOP_US);
    for &hog in &hogs {
        gpu.stop_auto_repeat(hog);
    }
    gpu.run_until_queues_drain();

    let mut fnv = Fnv(FNV_OFFSET);
    fnv.f64(gpu.now_us());
    let (kernels, slices) = gpu.take_logs();
    for k in &kernels {
        fnv.u64(k.ctx.index() as u64);
        fnv.str(&k.name);
        match &k.op_tag {
            Some(tag) => {
                fnv.u64(1);
                fnv.str(tag);
            }
            None => fnv.u64(0),
        }
        fnv.f64(k.start_us);
        fnv.f64(k.end_us);
    }
    for s in &slices {
        fnv.u64(s.ctx.index() as u64);
        fnv.f64(s.start_us);
        fnv.f64(s.end_us);
        for v in s.delta.as_array() {
            fnv.f64(v);
        }
    }
    (fnv.0, kernels.len(), slices.len())
}

fn faulty() -> FaultPlan {
    FaultPlan::uniform(0.3, 17)
}

#[test]
fn time_sliced_clean_logs_match_frozen_digest() {
    let got = run(SchedulerMode::TimeSliced, FaultPlan::none());
    assert_eq!(got, (0xb90b_347b_cc50_be65, 929, 740), "{got:#x?}");
}

#[test]
fn time_sliced_faulted_logs_match_frozen_digest() {
    let got = run(SchedulerMode::TimeSliced, faulty());
    assert_eq!(got, (0x8ee5_59fa_427d_287a, 684, 580), "{got:#x?}");
}

#[test]
fn mps_clean_logs_match_frozen_digest() {
    let got = run(SchedulerMode::Mps, FaultPlan::none());
    assert_eq!(got, (0xdfa0_d37a_0d68_1e04, 200, 143), "{got:#x?}");
}

#[test]
fn mps_faulted_logs_match_frozen_digest() {
    let got = run(SchedulerMode::Mps, faulty());
    assert_eq!(got, (0xe952_ed7a_dae5_9d8e, 123, 55), "{got:#x?}");
}
