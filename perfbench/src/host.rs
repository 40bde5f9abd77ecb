//! Host speed. The benchmark's CPUs are shared with other tenants, whose
//! load moves this host's speed by 30–40 % for minutes at a time and moves
//! every workload at once. A fixed calibration, timed between the measured
//! passes of a run, slows down with the host, and the end-to-end times of a
//! run are scaled to a reference host speed by [`speed_factor`]. The
//! calibration is the benchmark's own code, so a change to the program
//! never moves it.
//!
//! The calibration is an integer loop followed by lookups in a 32 Ki-key
//! hash map. Over seven minutes of `table1`-shaped passes on a two-vCPU
//! host, in blocks of 12 passes, the loop alone tracked the pass time with
//! a log-log slope of 2.0 (it slows down half as much as the program),
//! 400,000 map lookups alone with 0.6, the loop plus 400,000 lookups with
//! 1.1 and the loop plus 800,000 lookups with 0.9 (correlations 0.79 and
//! 0.78); scaling by either pair cut the blocks' spread from 0.141 to 0.08.
//! [`MAP_LOOKUPS`] sits between the two.

use crate::stats::median;
use std::collections::HashMap;
use std::time::Instant;

/// Iterations of the integer loop.
const LOOP_ITERATIONS: u64 = 8_000_000;
/// Keys of the hash map.
const MAP_KEYS: u64 = 1 << 15;
/// Lookups in the hash map.
const MAP_LOOKUPS: u64 = 600_000;

/// Time of [`Calibration::run`] at the reference host speed, seconds.
pub const REFERENCE_S: f64 = 0.04;

/// The calibration's state: its hash map stays filled between runs.
pub struct Calibration {
    map: HashMap<u64, u64>,
}

/// One step of a xorshift generator.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibration {
    /// Fill the hash map.
    pub fn new() -> Calibration {
        Calibration { map: (0..MAP_KEYS).map(|k| (k, k)).collect() }
    }

    /// Run the calibration once and return its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = std::hint::black_box(0x9E37_79B9_7F4A_7C15);
        let mut acc = 0u64;
        for i in 0..LOOP_ITERATIONS {
            acc = acc.wrapping_add(next(&mut x).rotate_left((i & 31) as u32));
        }
        for i in 0..MAP_LOOKUPS {
            let key = next(&mut x) % MAP_KEYS;
            *self.map.entry(key).or_insert(0) += i;
            acc = acc.wrapping_add(self.map.get(&(key ^ 1)).copied().unwrap_or(0));
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// The factor that scales a run's times to the reference host speed:
/// [`REFERENCE_S`] over the median of the run's calibration times (1 when
/// there are none). Times are multiplied by it, rates divided.
pub fn speed_factor(calibrations_s: &[f64]) -> f64 {
    let typical = median(calibrations_s);
    if typical > 0.0 {
        REFERENCE_S / typical
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_factor_scales_to_the_reference() {
        assert_eq!(speed_factor(&[]), 1.0);
        let slow = [REFERENCE_S * 2.0, REFERENCE_S * 3.0, REFERENCE_S * 2.0];
        assert!((speed_factor(&slow) - 0.5).abs() < 1e-12);
        let once = Calibration::new().run();
        assert!(once > 0.0 && once < 5.0, "{once}");
    }
}
