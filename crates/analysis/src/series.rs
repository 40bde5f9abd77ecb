//! Per-worker series `t ↦ P^(q)_{u →t→ u}`.
//!
//! For each worker the quantity of interest is the probability of being `UP`
//! at time `t` without having been `DOWN` in between, starting `UP` at time 0.
//! It is `(M_q^t)[0][0]` for the `{UP, RECLAIMED}` sub-matrix `M_q`, and has
//! the closed form `µ·λ₁ᵗ + ν·λ₂ᵗ`. This module wraps both evaluations and the
//! per-worker data needed for series truncation.
//!
//! A worker that can fail also keeps its terms in a table filled on first use,
//! so the group series of every set containing it read each term instead of
//! re-evaluating two powers per set.

use crate::group::series_len;
use dg_availability::markov::UpUpSeries;
use dg_availability::MarkovChain3;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Pre-processed per-worker data for evaluating `P^(q)_{u →t→ u}` cheaply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerSeries {
    chain: MarkovChain3,
    closed_form: Option<UpUpSeries>,
    lambda1: f64,
    can_fail: bool,
    /// Precision `ε` at which the terms are tabulated: the table holds
    /// `t = 1..=series_len(ε, λ₁)`.
    epsilon: f64,
    /// `table[t − 1] = P^(q)_{u →t→ u}`, filled on the first [`up_to_up`]
    /// call. Stays empty for workers that cannot fail: no truncated series
    /// exists for them.
    ///
    /// [`up_to_up`]: WorkerSeries::up_to_up
    #[serde(skip)]
    table: OnceLock<Box<[f64]>>,
}

impl WorkerSeries {
    /// Pre-process one worker's availability chain. The terms
    /// `t = 1..=series_len(ε, λ₁)` — the worker's own truncated series at
    /// precision `epsilon` — are evaluated once, on first use, and read from a
    /// table afterwards. A set's joint eigenvalue `Π λ₁` never exceeds a
    /// member's `λ₁`, so every group series at the same `ε` stays within its
    /// members' tables; later terms, and workers that cannot fail, are
    /// evaluated directly. Table entries are the direct values, so results are
    /// bit-identical.
    pub fn new(chain: &MarkovChain3, epsilon: f64) -> Self {
        WorkerSeries {
            chain: *chain,
            closed_form: chain.up_up_series(),
            lambda1: chain.dominant_up_eigenvalue(),
            can_fail: chain.can_fail(),
            epsilon,
            table: OnceLock::new(),
        }
    }

    /// The underlying chain.
    pub fn chain(&self) -> &MarkovChain3 {
        &self.chain
    }

    /// Dominant eigenvalue `λ₁` of the `{UP, RECLAIMED}` sub-matrix.
    pub fn lambda1(&self) -> f64 {
        self.lambda1
    }

    /// `true` if the worker has a non-zero probability of going `DOWN`.
    pub fn can_fail(&self) -> bool {
        self.can_fail
    }

    /// `true` once the term table has been filled.
    #[cfg(test)]
    pub(crate) fn is_tabulated(&self) -> bool {
        self.table.get().is_some()
    }

    /// `P^(q)_{u →t→ u}`: read from the term table when `t` lies in it,
    /// evaluated directly otherwise.
    #[inline]
    pub fn up_to_up(&self, t: u64) -> f64 {
        match t.checked_sub(1).and_then(|i| self.table().get(i as usize)) {
            Some(&p) => p,
            None => self.evaluate(t),
        }
    }

    /// The term table, filled on first use; empty for workers that cannot
    /// fail.
    #[inline]
    fn table(&self) -> &[f64] {
        if !self.can_fail {
            return &[];
        }
        self.table.get_or_init(|| {
            (1..=series_len(self.epsilon, self.lambda1)).map(|t| self.evaluate(t)).collect()
        })
    }

    /// Evaluate `P^(q)_{u →t→ u}`, preferring the closed form and falling back
    /// to an exact matrix power when the eigen-decomposition is degenerate.
    fn evaluate(&self, t: u64) -> f64 {
        match &self.closed_form {
            Some(s) => s.eval(t),
            None => self.chain.up_to_up_avoiding_down(t),
        }
    }

    /// `P^(q)_{ND}(t)`: probability of not going `DOWN` within `t` slots,
    /// starting `UP`.
    #[inline]
    pub fn no_down_within(&self, t: u64) -> f64 {
        self.chain.prob_no_down_within(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_agrees_with_matrix_power() {
        let chain = MarkovChain3::from_self_loop_probs(0.94, 0.92, 0.9).unwrap();
        let s = WorkerSeries::new(&chain, crate::DEFAULT_EPSILON);
        assert!(s.can_fail());
        for t in 0..300 {
            let a = s.up_to_up(t);
            let b = chain.up_to_up_avoiding_down(t);
            assert!((a - b).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn always_up_worker() {
        let chain = MarkovChain3::always_up();
        let s = WorkerSeries::new(&chain, crate::DEFAULT_EPSILON);
        assert!(!s.can_fail());
        assert!((s.lambda1() - 1.0).abs() < 1e-12);
        for t in [0, 1, 10, 1000] {
            assert!((s.up_to_up(t) - 1.0).abs() < 1e-12);
            assert!((s.no_down_within(t) - 1.0).abs() < 1e-12);
        }
    }

    /// Every term of a tabulated series, through the table's end and 16
    /// terms past it, must equal the direct evaluation bit for bit.
    fn assert_table_matches_direct(chain: &MarkovChain3, epsilon: f64) {
        let s = WorkerSeries::new(chain, epsilon);
        assert!(!s.is_tabulated(), "the table must be filled lazily");
        let len = if chain.can_fail() { series_len(epsilon, s.lambda1()) } else { 0 };
        for t in 1..=len + 16 {
            assert_eq!(
                s.up_to_up(t).to_bits(),
                s.evaluate(t).to_bits(),
                "t = {t} (table length {len})"
            );
        }
        assert_eq!(s.is_tabulated(), chain.can_fail());
        assert_eq!(s.table().len() as u64, len);
    }

    #[test]
    fn tabulated_terms_equal_the_direct_evaluation_bitwise() {
        let mut rng = dg_availability::rng::rng_from_seed(7);
        for _ in 0..12 {
            let chain = MarkovChain3::sample_paper_model(&mut rng);
            assert!(chain.up_up_series().is_some());
            assert_table_matches_direct(&chain, crate::DEFAULT_EPSILON);
            assert_table_matches_direct(&chain, 1e-12);
        }
        // UP never moves to RECLAIMED and both self-loops are equal: the
        // {UP, RECLAIMED} block has a double eigenvalue, so there is no
        // closed form and every term is a matrix power.
        let degenerate = MarkovChain3::new(dg_availability::Matrix3::new([
            [0.9, 0.0, 0.1],
            [0.05, 0.9, 0.05],
            [0.1, 0.1, 0.8],
        ]))
        .unwrap();
        assert!(degenerate.up_up_series().is_none() && degenerate.can_fail());
        assert_table_matches_direct(&degenerate, crate::DEFAULT_EPSILON);
        // A worker that cannot fail has no table: every term is direct.
        assert_table_matches_direct(&MarkovChain3::always_up(), crate::DEFAULT_EPSILON);
    }

    #[test]
    fn values_bounded_and_decaying() {
        let chain = MarkovChain3::from_self_loop_probs(0.9, 0.95, 0.93).unwrap();
        let s = WorkerSeries::new(&chain, crate::DEFAULT_EPSILON);
        assert!(s.lambda1() < 1.0);
        for t in 0..500u64 {
            let v = s.up_to_up(t);
            assert!((0.0..=1.0).contains(&v));
            assert!(v <= s.lambda1().powi(t as i32) + 1e-12);
        }
    }
}
