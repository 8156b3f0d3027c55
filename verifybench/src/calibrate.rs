//! Host-speed calibration. On a shared host the speed of one vCPU drifts
//! by up to 1.6× in phases of seconds to minutes (other tenants on the
//! same cores), and the drift is not steal time: the thread's own on-CPU
//! time drifts with the wall time. So every timed piece of work is
//! bracketed by probes of a fixed calibration kernel that lives here, in
//! the benchmark, and never changes with the program, and its wall time is
//! rescaled by how much slower or faster than [`REFERENCE_SLICE_S`] the
//! kernel ran next to it. A change to the program moves the rescaled time
//! just as it moves the wall time; a change in host speed moves both the
//! work and the probes, and cancels.

use std::collections::BTreeMap;
use std::time::Instant;

/// The median time of one calibration slice on the host the README's
/// numbers were taken on (a 2-vCPU KVM guest, Intel Xeon). A rescaled
/// time is the wall time the work would have taken with the kernel
/// running at this speed.
pub const REFERENCE_SLICE_S: f64 = 7.0e-4;

/// How much more the verifier's time moves than the kernel's when the
/// host's speed drifts: with the kernel 10% slower, a round is about 15%
/// slower. Fitted on the host the README's numbers were taken on, where
/// 1.5 gave the smallest run-to-run spread on all three workloads, plain
/// and stats rounds alike (1.0, 1.25, 1.75 and 2.0 were also tried).
const ELASTICITY: f64 = 1.5;

/// Slices per probe; a probe is their median.
const PROBE_SLICES: usize = 5;

/// One timed piece of work: its wall time and the same time rescaled to
/// the reference host speed, both in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timed {
    pub wall: f64,
    pub scaled: f64,
}

/// The calibration kernel: ordered-map churn, i.e. allocation, pointer
/// chasing and unpredictable branches, the kind of work that dominates
/// the verifier. (A random-access table and small-vector allocations were
/// also tried, alone and mixed in; they tracked the verifier's drift
/// less well.)
pub struct HostSpeed {
    x: u64,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    /// A kernel, warmed up.
    pub fn new() -> Self {
        let mut speed = Self {
            x: 0x9E37_79B9_7F4A_7C15,
        };
        speed.probe();
        speed
    }

    /// SplitMix64.
    fn next(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Runs one slice of the kernel; returns its wall time in seconds.
    fn slice(&mut self) -> f64 {
        let t = Instant::now();
        let mut map = BTreeMap::new();
        for k in 0..3_000u64 {
            let key = self.next() % 8192;
            map.insert(key, k);
        }
        let mut sum = 0u64;
        for k in 0..3_000u64 {
            if let Some(v) = map.remove(&(self.next() % 8192)) {
                sum = sum.wrapping_add(v ^ k);
            }
        }
        std::hint::black_box((sum, map));
        t.elapsed().as_secs_f64()
    }

    /// The kernel's current speed: the median time of a few slices, in
    /// seconds.
    pub fn probe(&mut self) -> f64 {
        let slices: Vec<f64> = (0..PROBE_SLICES).map(|_| self.slice()).collect();
        crate::median(&slices)
    }
}

/// `wall`, rescaled by the mean of the probes taken just before and just
/// after it.
pub fn rescale(wall: f64, before: f64, after: f64) -> Timed {
    let speed = REFERENCE_SLICE_S * 2.0 / (before + after);
    Timed {
        wall,
        scaled: wall * speed.powf(ELASTICITY),
    }
}
