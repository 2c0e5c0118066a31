//! Host-speed reference kernel.
//!
//! The benchmark's host is a small shared machine whose speed drifts by
//! tens of percent between runs of identical code. Each search is
//! therefore paired with a sample of this fixed kernel, and host times
//! are reported calibrated: `raw × NOMINAL_MS / measured`. The kernel
//! uses only `std` and shares no code with the workspace, so no change
//! under test can speed it up. It allocates only in [`Kernel::new`] and
//! sweeps a 2 MiB working set with the ingredients of a search:
//! data-dependent loads and stores, integer mixing, `f64` arithmetic and
//! branches the predictor cannot learn.
//!
//! The working set is the reference host's per-core L2. On that host,
//! interference from other tenants slows the searches more than it slows
//! an L1/L2-resident kernel: paired over the same runs, a 256 KiB kernel
//! left 10-12% of the run-to-run spread of calibrated medians, a 2 MiB
//! kernel 7-8%.

use std::hint::black_box;
use std::time::Instant;

/// Entries per buffer: two buffers of 128 Ki eight-byte entries, 2 MiB.
const ENTRIES: usize = 128 * 1024;
/// Start of the kernel's xorshift stream.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Median pass time of the kernel on the reference host (a 2-core x86-64
/// container), in ms. Calibrated times read as if the host ran the
/// kernel in exactly this time.
pub const NOMINAL_MS: f64 = 1.6;

/// The kernel's buffers, allocated once.
#[derive(Debug)]
pub struct Kernel {
    ints: Vec<u64>,
    floats: Vec<f64>,
}

impl Kernel {
    pub fn new() -> Self {
        let mut x = SEED;
        let ints = (0..ENTRIES)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        let floats = (0..ENTRIES).map(|i| i as f64).collect();
        Self { ints, floats }
    }

    fn pass(&mut self) -> u64 {
        let mut x = SEED;
        let mut acc = 0u64;
        let mut facc = 0.0f64;
        for i in 0..ENTRIES {
            x = xorshift(x);
            let j = (x as usize) & (ENTRIES - 1);
            let v = self.ints[j];
            self.ints[i] = v.rotate_left(7) ^ x;
            let f = self.floats[j];
            self.floats[i] = f * 0.999 + (v & 0xff) as f64;
            if v & 1 == 0 {
                acc = acc.wrapping_add(v);
            } else {
                facc += f;
            }
        }
        acc ^ facc.to_bits()
    }

    /// One calibration sample, in ms. The pass runs twice and only the
    /// second is timed, so the cache state the preceding search left
    /// behind cannot bias it.
    pub fn measure(&mut self) -> f64 {
        black_box(self.pass());
        let started = Instant::now();
        black_box(self.pass());
        started.elapsed().as_secs_f64() * 1e3
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
