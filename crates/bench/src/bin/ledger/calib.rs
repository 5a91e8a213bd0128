//! Host-speed calibration: how fast the cores under the harness are right
//! now, measured with a fixed loop the harness owns.
//!
//! The host this ledger was written on is a shared 2-vCPU VM whose cores
//! change speed in steps as other tenants come and go: for seconds to
//! minutes at a time everything — the workloads, training, this loop —
//! runs up to 35 % slower, with CPU time inflating alongside wall time
//! (steal is under 0.1 %, so it is the core that is slower, not the
//! process that is descheduled). Neither longer runs nor another order
//! statistic removes a shift that outlasts a run; dividing by what the same
//! core does to a fixed loop at the same moment does (README, "Host-speed
//! calibration", has the measurements).
//!
//! The loop is a vector multiply-add over an L1-resident array: it moves
//! with the core's clock and with whatever else competes for its execution
//! units, as the workloads do. A reading is its time over [`REFERENCE_MS`]:
//! the **slowness** of the core, 1.0 on the reference host, 1.3 when the
//! core is 30 % slower. It lives here and calls nothing of the repository,
//! so no change to the program under test moves it.
//!
//! Two things make it follow the work it is compared with. It runs **on the
//! CPUs that do the work** — the harness confines every thread to a CPU
//! (`host::Placement`), and the two vCPUs are not slow at the same times —
//! and each timed interval is read against the samples **just before and
//! just after it**, not against a mean over the run.

use std::hint::black_box;
use std::time::Instant;

use crate::{host, stats};

/// What one reading takes on the reference host, milliseconds: the host
/// this was written on (Xeon @ 2.1 GHz, `target-cpu=native`) while its
/// neighbours are quiet. It only fixes the scale; comparisons are between
/// runs on one host.
pub const REFERENCE_MS: f64 = 1.0;

const LEN: usize = 4_096;
const PASSES: u32 = 7_000;
/// Readings per CPU in one [`HostSpeed::sample`] call.
const SLOT: usize = 30;
/// Floats in a cache line. The array starts on a line boundary: where the
/// allocator happens to put it would otherwise decide whether every
/// 64-byte access straddles two lines, and the loop would run at one of
/// two speeds a factor of two apart, fixed per process.
const LINE_FLOATS: usize = 16;

/// Slowness of the CPUs a phase's work runs on, sampled between the
/// phase's timed intervals.
pub struct HostSpeed {
    /// The CPU the calling thread is confined to.
    home: usize,
    /// Where the phase's work runs.
    cpus: Vec<usize>,
    slots: Vec<f64>,
    buffer: Vec<f32>,
}

impl HostSpeed {
    pub fn new(home: usize, cpus: &[usize]) -> Self {
        HostSpeed {
            home,
            cpus: cpus.to_vec(),
            slots: Vec::new(),
            buffer: vec![1.0; LEN + LINE_FLOATS],
        }
    }

    /// Takes [`SLOT`] readings of about 1 ms on each of the phase's CPUs,
    /// moving the calling thread there and back home, and records the mean
    /// over the CPUs of each one's median reading: the slowness of the host
    /// just now, interruptions shorter than half a slot left out. Call it
    /// between timed intervals, never inside one, while the threads that
    /// work on those CPUs are idle.
    pub fn sample(&mut self) {
        let start = self.buffer.as_ptr().align_offset(4 * LINE_FLOATS);
        let x = &mut self.buffer[start..start + LEN];
        let mut sum = 0.0;
        for &cpu in &self.cpus {
            host::pin_to(&[cpu]);
            let readings: Vec<f64> = (0..SLOT)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..PASSES {
                        for v in x.iter_mut() {
                            *v = *v * 0.999 + 0.5;
                        }
                        black_box(&mut *x);
                    }
                    t0.elapsed().as_secs_f64() * 1e3 / REFERENCE_MS
                })
                .collect();
            sum += stats::median(&readings);
        }
        host::pin_to(&[self.home]);
        self.slots.push(sum / self.cpus.len() as f64);
    }

    /// Every sample so far, oldest first.
    pub fn slots(&self) -> &[f64] {
        &self.slots
    }
}

/// Mean slowness over `slots`: what a time measured between the first and
/// the last of them is divided by, and a rate multiplied by, to read as on
/// the reference host.
pub fn slowness(slots: &[f64]) -> f64 {
    assert!(!slots.is_empty(), "an interval has a sample at either end");
    slots.iter().sum::<f64>() / slots.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_one_slot_and_slowness_is_the_mean_of_slots() {
        let cpu = host::placement().generator;
        let mut speed = HostSpeed::new(cpu, &[cpu]);
        speed.sample();
        assert_eq!(speed.slots().len(), 1);
        // A debug build runs the loop many times slower; the bounds only
        // catch a loop the compiler deleted or a unit mix-up.
        assert!(speed.slots()[0] > 0.05 && speed.slots()[0] < 500.0);
        assert_eq!(slowness(&[1.0, 1.5]), 1.25);
    }
}
