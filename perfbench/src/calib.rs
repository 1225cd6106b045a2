//! Host-speed calibration.
//!
//! On a shared host the speed of a vCPU moves by up to 1.7x within
//! seconds, with no host steal to show for it (other tenants on the same
//! core slow it down). Wall and CPU times of the same work moved with it,
//! by more than any regression bound. So the client runs a fixed kernel
//! between timed units, on the CPU the server runs on (`run.py` pins both
//! to one CPU), and every timing is scaled by the kernel's reference time
//! over its time nearby: the result reads as milliseconds on a vCPU that
//! runs the kernel in its reference time.
//!
//! The kernel is benchmark code, so a change to the program cannot speed
//! it up. It runs while the server waits for the next request, so it does
//! not compete with the program either. It has a cache-resident half,
//! timed on warm caches so the program's memory footprint does not slow
//! it, and a memory half that workloads whose round trips follow the
//! vCPU's speed less closely add to it.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Reference times of the kernel's halves, close to their medians on the
/// 2-vCPU shared VM the benchmark was defined on. They only scale the
/// figures; their steadiness comes from the kernel tracking the host.
pub const REF_MIX_S: f64 = 0.000_30;
pub const REF_WALK_S: f64 = 0.000_60;

/// A kernel runs after a unit once this long has passed since the last.
const EVERY_S: f64 = 0.02;

/// Kernel samples on each side of a unit that set its speed factor.
const NEAR: usize = 10;

/// Kernel runs before the first timed one, to warm caches and allocator.
const WARM: usize = 3;

/// Words in the kernel's memory table: 8 MiB, past the per-core caches,
/// as the server's registry snapshots and stores are.
const TABLE_WORDS: usize = 1 << 20;

/// Reads per walk: about as long as [`mix`] on the reference VM.
const WALK_READS: usize = 3_000;

/// The cache-resident half of the calibration kernel: string
/// formatting, hashing, a B-tree and a sort, the mix of the server's own
/// request path. Deterministic work; the returned count only keeps the
/// optimiser from dropping it.
pub fn mix() -> usize {
    let key = |i: u32| format!("s{}_T(v{},v{})", i % 7, i, i * 31 % 977);
    let mut map: HashMap<String, u32> = HashMap::new();
    for i in 0..400 {
        map.insert(key(i), i);
    }
    let mut set = BTreeSet::new();
    for i in 0..800 {
        if let Some(&v) = map.get(&key(i)) {
            set.insert((v % 97, v));
        }
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort_unstable();
    std::hint::black_box(set.len() + keys.len())
}

/// The memory half: dependent random reads over `table`, for the cache
/// and memory traffic the server's larger structures cause. Each read
/// rewrites its word, so every walk takes a fresh path.
pub fn walk(table: &mut [u64]) -> usize {
    let mask = table.len() - 1;
    let mut at = 0usize;
    for _ in 0..WALK_READS {
        let next = table[at] as usize & mask;
        table[at] = table[at].rotate_left(7) ^ 0x9e37_79b9_7f4a_7c15;
        at = next;
    }
    std::hint::black_box(at)
}

/// One kernel run: after how many timed pieces it ran, and its seconds.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub after: usize,
    pub kernel_s: f64,
}

/// Kernel runs interleaved with a sequence of timed pieces (set-up steps
/// or timed units).
#[derive(Debug)]
pub struct Calibrator {
    pub samples: Vec<Sample>,
    last: Instant,
    /// The walk's table; empty when the kernel is [`mix`] alone.
    table: Vec<u64>,
}

impl Calibrator {
    /// A calibrator whose kernel is [`mix`], followed by [`walk`] when
    /// `with_walk` holds.
    pub fn new(with_walk: bool) -> Calibrator {
        let mut table = Vec::new();
        if with_walk {
            // A fixed pseudo-random walk through the table.
            let mut x = 0x2545_f491_4f6c_dd1d_u64;
            table.reserve(TABLE_WORDS);
            for _ in 0..TABLE_WORDS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                table.push(x);
            }
        }
        let mut cal = Calibrator {
            samples: Vec::new(),
            last: Instant::now(),
            table,
        };
        for _ in 0..WARM {
            cal.run();
        }
        cal
    }

    /// The kernel's reference time.
    pub fn ref_s(&self) -> f64 {
        if self.table.is_empty() {
            REF_MIX_S
        } else {
            REF_MIX_S + REF_WALK_S
        }
    }

    fn run(&mut self) {
        mix();
        if !self.table.is_empty() {
            walk(&mut self.table);
        }
    }

    /// Runs the kernel after `after` timed pieces and records its time.
    /// An untimed [`mix`] first refills the caches the server's work just
    /// used, so the timed run does not depend on the program's footprint;
    /// the walk misses the caches either way.
    pub fn sample(&mut self, after: usize) {
        mix();
        let t = Instant::now();
        self.run();
        self.samples.push(Sample {
            after,
            kernel_s: t.elapsed().as_secs_f64(),
        });
        self.last = Instant::now();
    }

    /// Whether [`EVERY_S`] has passed since the last kernel.
    pub fn due(&self) -> bool {
        self.last.elapsed().as_secs_f64() >= EVERY_S
    }

    /// Speed factor of timed piece `i` (0-based): the reference kernel
    /// time over the median of the nearest samples, [`NEAR`] on each side
    /// (fewer at the ends). Multiply a piece's time by it.
    pub fn factor(&self, i: usize) -> f64 {
        assert!(!self.samples.is_empty(), "no calibration samples");
        let at = self.samples.partition_point(|s| s.after <= i);
        let lo = at.saturating_sub(NEAR);
        let hi = (at + NEAR).min(self.samples.len());
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.kernel_s).collect();
        self.ref_s() / crate::stats::median(&near)
    }

    /// Each of `times` scaled by its piece's factor.
    pub fn scale(&self, times: &[f64]) -> Vec<f64> {
        times
            .iter()
            .enumerate()
            .map(|(i, t)| t * self.factor(i))
            .collect()
    }

    /// The median kernel time, in seconds.
    pub fn median_s(&self) -> f64 {
        let v: Vec<f64> = self.samples.iter().map(|s| s.kernel_s).collect();
        crate::stats::median(&v)
    }
}
