//! Communication-phase estimates (Section V-B).
//!
//! Exact counterparts of `P₊`/`E(W)` for the communication phase are out of
//! reach because of the master's `ncom` bound, so the paper uses coarser
//! estimates:
//!
//! * every worker `P_q` needs `n_q` slots of communication (program if missing
//!   plus one data message per missing task input);
//! * if at most `ncom` workers communicate, each worker's transfer is treated
//!   like a single-worker "computation" of `n_q` slots, so its expected
//!   duration is `E^({P_q})(n_q)`, and the phase estimate is the maximum over
//!   workers;
//! * if more than `ncom` workers must communicate, the estimate is the maximum
//!   of the per-worker expectation and of the serialization bound
//!   `Σ_q n_q / ncom`;
//! * the success probability multiplies, for every worker, the probability of
//!   not going `DOWN` during the estimated phase duration.

use crate::group::GroupComputation;
use crate::series::WorkerSeries;
use serde::{Deserialize, Serialize};

/// Estimated duration and success probability of a communication phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommEstimate {
    /// `E_comm^(S)`: estimated duration of the communication phase, in slots.
    pub expected_duration: f64,
    /// `P_comm^(S)`: estimated probability that no enrolled worker goes `DOWN`
    /// during the phase.
    pub success_probability: f64,
}

impl CommEstimate {
    /// The estimate for a configuration that needs no communication at all.
    pub fn nothing_to_send() -> Self {
        CommEstimate { expected_duration: 0.0, success_probability: 1.0 }
    }

    /// Compute the estimate for a set of enrolled workers.
    ///
    /// `workers[i]` is the availability series of enrolled worker `i` and
    /// `comm_slots[i]` its number `n_q` of required communication slots.
    /// `ncom` is the master's bound on simultaneous transfers.
    ///
    /// # Panics
    /// Panics if the two slices have different lengths or `ncom == 0`.
    pub fn compute(
        computation: &GroupComputation,
        workers: &[&WorkerSeries],
        comm_slots: &[u64],
        ncom: usize,
    ) -> Self {
        assert_eq!(workers.len(), comm_slots.len(), "one comm volume per worker");
        assert!(ncom > 0, "ncom must be at least 1");
        if workers.is_empty() || comm_slots.iter().all(|&n| n == 0) {
            return CommEstimate::nothing_to_send();
        }

        // Per-worker expected communication time E^({P_q})(n_q).
        let mut max_single = 0.0f64;
        for (w, &n) in workers.iter().zip(comm_slots.iter()) {
            if n == 0 {
                continue;
            }
            let g = computation.compute(&[*w]);
            max_single = max_single.max(g.expected_completion_time(n));
        }

        let total: u64 = comm_slots.iter().sum();
        let expected_duration = if workers.len() <= ncom {
            max_single
        } else {
            max_single.max(total as f64 / ncom as f64)
        };

        // P_comm = Π_q P_ND^(q)(E_comm) — every enrolled worker (even one with
        // nothing to receive) must avoid going DOWN while the others download.
        let horizon = expected_duration.ceil() as u64;
        let success_probability =
            workers.iter().map(|w| w.no_down_within(horizon)).product::<f64>().clamp(0.0, 1.0);

        CommEstimate { expected_duration, success_probability }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_availability::MarkovChain3;

    fn series(p_uu: f64, p_rr: f64, p_dd: f64) -> WorkerSeries {
        WorkerSeries::new(
            &MarkovChain3::from_self_loop_probs(p_uu, p_rr, p_dd).unwrap(),
            crate::DEFAULT_EPSILON,
        )
    }

    fn reliable() -> WorkerSeries {
        WorkerSeries::new(&MarkovChain3::always_up(), crate::DEFAULT_EPSILON)
    }

    #[test]
    fn no_communication_needed() {
        let comp = GroupComputation::default();
        let w = reliable();
        let est = CommEstimate::compute(&comp, &[&w], &[0], 2);
        assert_eq!(est.expected_duration, 0.0);
        assert_eq!(est.success_probability, 1.0);
        let empty = CommEstimate::compute(&comp, &[], &[], 2);
        assert_eq!(empty.expected_duration, 0.0);
    }

    #[test]
    fn reliable_workers_under_ncom_take_max_volume() {
        let comp = GroupComputation::default();
        let ws = [reliable(), reliable(), reliable()];
        let refs: Vec<&WorkerSeries> = ws.iter().collect();
        let est = CommEstimate::compute(&comp, &refs, &[3, 7, 2], 3);
        assert!((est.expected_duration - 7.0).abs() < 1e-6);
        assert!((est.success_probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_bound_kicks_in_when_over_ncom() {
        let comp = GroupComputation::default();
        let ws = [reliable(), reliable(), reliable(), reliable()];
        let refs: Vec<&WorkerSeries> = ws.iter().collect();
        // 4 workers, ncom = 2, volumes sum to 12 -> aggregated bound 6 > max 4.
        let est = CommEstimate::compute(&comp, &refs, &[4, 4, 2, 2], 2);
        assert!((est.expected_duration - 6.0).abs() < 1e-6);
    }

    #[test]
    fn per_worker_expectation_dominates_when_larger() {
        let comp = GroupComputation::default();
        let ws = [reliable(), reliable(), reliable(), reliable()];
        let refs: Vec<&WorkerSeries> = ws.iter().collect();
        // max volume 10 > total/ncom = 16/2 = 8.
        let est = CommEstimate::compute(&comp, &refs, &[10, 2, 2, 2], 2);
        assert!((est.expected_duration - 10.0).abs() < 1e-6);
    }

    #[test]
    fn volatile_workers_lower_success_probability() {
        let comp = GroupComputation::default();
        let risky = [series(0.9, 0.9, 0.9), series(0.9, 0.9, 0.9)];
        let refs: Vec<&WorkerSeries> = risky.iter().collect();
        let est = CommEstimate::compute(&comp, &refs, &[5, 5], 2);
        assert!(est.success_probability < 1.0);
        assert!(est.success_probability > 0.0);
        // Expected duration exceeds the raw volume because of reclaiming.
        assert!(est.expected_duration > 5.0);

        // Workers with a higher failure rate fare worse.
        let safer = [series(0.99, 0.99, 0.9), series(0.99, 0.99, 0.9)];
        let refs_safe: Vec<&WorkerSeries> = safer.iter().collect();
        let est_safe = CommEstimate::compute(&comp, &refs_safe, &[5, 5], 2);
        assert!(est_safe.success_probability > est.success_probability);
    }

    #[test]
    fn idle_enrolled_worker_still_risks_failure() {
        let comp = GroupComputation::default();
        let ws = [series(0.9, 0.9, 0.9), reliable()];
        let refs: Vec<&WorkerSeries> = ws.iter().collect();
        // Only the reliable worker downloads, but the volatile one must survive.
        let est = CommEstimate::compute(&comp, &refs, &[0, 6], 2);
        assert!(est.success_probability < 1.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let comp = GroupComputation::default();
        let w = reliable();
        let _ = CommEstimate::compute(&comp, &[&w], &[1, 2], 2);
    }
}
