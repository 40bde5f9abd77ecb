//! Availability trace generation and replay.
//!
//! The simulator needs to answer two questions about processor availability:
//! "in which state is processor `q` at time-slot `t`?" ([`AvailabilityModel::
//! state`]) and "when does processor `q` next *change* state?"
//! ([`AvailabilityModel::next_transition`], the primitive behind the
//! event-driven engine's jumps over idle stretches). Two kinds of backend
//! implement the [`AvailabilityModel`] trait:
//!
//! * [`MarkovAvailability`] — realizes each processor's [`MarkovChain3`] lazily
//!   as a run-length-encoded sequence of `(start_slot, state)` segments,
//!   sampling sojourn times directly ([`MarkovChain3::sample_transition`])
//!   instead of flipping a coin every slot. The realization is fully determined
//!   by the seed, so simulation runs are reproducible. A per-processor cursor
//!   remembers the last segment read, so queries that move forward in time
//!   (every simulation run does) cost `O(1)`; any other query costs
//!   `O(log #segments)`, after amortized `O(#transitions)` generation.
//! * [`ScriptedAvailability`] and [`TraceSet`] — replay explicit, pre-generated
//!   traces (hand-written scripts for unit tests and the Figure 1 worked
//!   example; semi-Markov realizations for the sensitivity study). Their
//!   `next_transition` scans the dense trace for the next change.

use crate::markov::MarkovChain3;
use crate::rng::sub_rng;
use crate::state::{ProcState, StateTrace};
use rand::rngs::SmallRng;
use rand::Rng;

/// Source of processor availability information for the simulator.
///
/// Time is explored monotonically by the simulator but implementations must
/// answer queries for any `t` (lazily generated models cache their history).
pub trait AvailabilityModel {
    /// Number of processors described by this model.
    fn num_procs(&self) -> usize;

    /// State of processor `q` at time-slot `t`.
    ///
    /// # Panics
    /// Implementations may panic if `q >= self.num_procs()`.
    fn state(&mut self, q: usize, t: u64) -> ProcState;

    /// First time-slot strictly after `after` at which processor `q` is in a
    /// different state than at `after`, together with that new state.
    ///
    /// Returns `None` when the processor never changes state again (a
    /// scripted trace past its horizon, or a Markov chain caught in an
    /// absorbing state). The event-driven simulator uses this to jump
    /// directly to the next instant at which anything can happen, so
    /// implementations must be consistent with [`AvailabilityModel::state`]:
    /// `state(q, u)` equals `state(q, after)` for every
    /// `after < u < transition_slot`, and equals the returned state at the
    /// returned slot.
    ///
    /// # Panics
    /// Implementations may panic if `q >= self.num_procs()`.
    fn next_transition(&mut self, q: usize, after: u64) -> Option<(u64, ProcState)>;

    /// `true` if every processor in `procs` is `UP` at time-slot `t`.
    fn all_up(&mut self, procs: &[usize], t: u64) -> bool {
        procs.iter().all(|&q| self.state(q, t).is_up())
    }

    /// Project the model onto a boolean `UP` matrix over `0..horizon`:
    /// `matrix[q][t]` is `true` exactly when processor `q` is `UP` at slot
    /// `t`. This is the paper's offline view of a realized trial — `RECLAIMED`
    /// and `DOWN` both project to `false`, because the offline problem only
    /// distinguishes available from unavailable.
    fn up_matrix(&mut self, horizon: u64) -> Vec<Vec<bool>> {
        (0..self.num_procs())
            .map(|q| (0..horizon).map(|t| self.state(q, t).is_up()).collect())
            .collect()
    }
}

/// Lazily realized Markov availability: one [`MarkovChain3`] and one RNG stream
/// per processor, realized as run-length segments by direct sojourn sampling.
#[derive(Debug, Clone)]
pub struct MarkovAvailability {
    chains: Vec<MarkovChain3>,
    /// Per-processor realization as `(start_slot, state)` runs: the processor
    /// is in `state` from `start_slot` (inclusive) until the next segment's
    /// start. Starts are strictly increasing and consecutive states always
    /// differ, so segment boundaries *are* the transition instants.
    segments: Vec<Vec<(u64, ProcState)>>,
    /// `true` once the processor reached an absorbing state: the last
    /// segment's state then persists forever and no more RNG is consumed.
    absorbed: Vec<bool>,
    rngs: Vec<SmallRng>,
    /// Per-processor index of the segment the last query landed in. Segments
    /// are only ever appended, so a cursor stays a valid index; it is a hint
    /// that makes forward-moving queries O(1) and never changes an answer.
    cursors: Vec<usize>,
}

impl MarkovAvailability {
    /// Create a model from per-processor chains.
    ///
    /// Each processor starts in the `UP` state at time-slot 0 unless
    /// `random_start` is set, in which case the initial state is drawn from the
    /// chain's stationary distribution.
    pub fn new(chains: Vec<MarkovChain3>, seed: u64, random_start: bool) -> Self {
        let mut segments = Vec::with_capacity(chains.len());
        let mut rngs = Vec::with_capacity(chains.len());
        for (q, chain) in chains.iter().enumerate() {
            let mut rng = sub_rng(seed, q as u64);
            let initial = if random_start {
                let pi = chain.stationary_distribution();
                let x: f64 = rng.gen();
                if x < pi[0] {
                    ProcState::Up
                } else if x < pi[0] + pi[1] {
                    ProcState::Reclaimed
                } else {
                    ProcState::Down
                }
            } else {
                ProcState::Up
            };
            segments.push(vec![(0, initial)]);
            rngs.push(rng);
        }
        let absorbed = vec![false; chains.len()];
        let cursors = vec![0; chains.len()];
        MarkovAvailability { chains, segments, absorbed, rngs, cursors }
    }

    /// The chain governing processor `q`.
    pub fn chain(&self, q: usize) -> &MarkovChain3 {
        &self.chains[q]
    }

    /// All per-processor chains.
    pub fn chains(&self) -> &[MarkovChain3] {
        &self.chains
    }

    /// Materialize the first `horizon` time-slots of every processor into a
    /// [`TraceSet`] (a single-slot trace per processor when `horizon` is 0).
    pub fn materialize(&mut self, horizon: u64) -> TraceSet {
        let cap = horizon.max(1);
        let mut traces = Vec::with_capacity(self.num_procs());
        for q in 0..self.num_procs() {
            self.realize_past(q, cap - 1);
            let segments = &self.segments[q];
            let mut states = Vec::with_capacity(cap as usize);
            for (i, &(start, state)) in segments.iter().enumerate() {
                if start >= cap {
                    break;
                }
                // Starts are strictly increasing, so the run ends where the
                // next segment begins (or at the horizon).
                let end = segments.get(i + 1).map_or(cap, |&(s, _)| s.min(cap));
                states.extend(std::iter::repeat_n(state, (end - start) as usize));
            }
            traces.push(StateTrace::new(states));
        }
        TraceSet::new(traces)
    }

    /// Extend processor `q`'s realization until its last segment starts after
    /// `t` (so the state at `t` is final) or an absorbing state is reached.
    fn realize_past(&mut self, q: usize, t: u64) {
        while !self.absorbed[q] {
            let &(start, state) = self.segments[q].last().expect("segments are never empty");
            if start > t {
                break;
            }
            match self.chains[q].sample_transition(state, &mut self.rngs[q]) {
                Some((sojourn, next)) => self.segments[q].push((start + sojourn, next)),
                None => self.absorbed[q] = true,
            }
        }
    }

    /// Index of the segment covering slot `t` (requires the realization to
    /// already extend past `t`). Tries the cursor's segment and the one after
    /// it before falling back to a binary search, then moves the cursor there.
    fn segment_at(&mut self, q: usize, t: u64) -> usize {
        let segments = &self.segments[q];
        let covers = |i: usize| {
            segments.get(i).is_some_and(|&(start, _)| start <= t)
                && segments.get(i + 1).is_none_or(|&(next, _)| t < next)
        };
        let cursor = self.cursors[q];
        let i = if covers(cursor) {
            cursor
        } else if covers(cursor + 1) {
            cursor + 1
        } else {
            segments.partition_point(|&(start, _)| start <= t) - 1
        };
        self.cursors[q] = i;
        i
    }
}

impl AvailabilityModel for MarkovAvailability {
    fn num_procs(&self) -> usize {
        self.chains.len()
    }

    fn state(&mut self, q: usize, t: u64) -> ProcState {
        self.realize_past(q, t);
        let i = self.segment_at(q, t);
        self.segments[q][i].1
    }

    fn next_transition(&mut self, q: usize, after: u64) -> Option<(u64, ProcState)> {
        self.realize_past(q, after);
        let next = self.segment_at(q, after) + 1;
        self.segments[q].get(next).copied()
    }
}

/// Replays explicit traces; deterministic and side-effect free.
#[derive(Debug, Clone)]
pub struct ScriptedAvailability {
    traces: Vec<StateTrace>,
}

impl ScriptedAvailability {
    /// Create a scripted model from explicit per-processor traces.
    pub fn new(traces: Vec<StateTrace>) -> Self {
        assert!(!traces.is_empty(), "scripted availability needs at least one processor");
        ScriptedAvailability { traces }
    }

    /// Create a scripted model from strings of `U`/`R`/`D` codes.
    ///
    /// # Panics
    /// Panics if any string is empty or contains an invalid code.
    pub fn from_codes(codes: &[&str]) -> Self {
        ScriptedAvailability::new(
            codes
                .iter()
                .map(|c| StateTrace::parse(c).expect("invalid availability code string"))
                .collect(),
        )
    }

    /// Access the underlying traces.
    pub fn traces(&self) -> &[StateTrace] {
        &self.traces
    }
}

impl AvailabilityModel for ScriptedAvailability {
    fn num_procs(&self) -> usize {
        self.traces.len()
    }

    fn state(&mut self, q: usize, t: u64) -> ProcState {
        self.traces[q].state_at(t)
    }

    fn next_transition(&mut self, q: usize, after: u64) -> Option<(u64, ProcState)> {
        self.traces[q].next_change(after)
    }
}

/// A plain collection of per-processor traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSet {
    traces: Vec<StateTrace>,
}

impl TraceSet {
    /// Wrap a vector of traces.
    pub fn new(traces: Vec<StateTrace>) -> Self {
        TraceSet { traces }
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.traces.len()
    }

    /// Trace of processor `q`.
    pub fn trace(&self, q: usize) -> &StateTrace {
        &self.traces[q]
    }

    /// Iterate over all traces.
    pub fn iter(&self) -> impl Iterator<Item = &StateTrace> {
        self.traces.iter()
    }

    /// Consume the set and return the traces.
    pub fn into_traces(self) -> Vec<StateTrace> {
        self.traces
    }
}

impl AvailabilityModel for TraceSet {
    fn num_procs(&self) -> usize {
        self.traces.len()
    }

    fn state(&mut self, q: usize, t: u64) -> ProcState {
        self.traces[q].state_at(t)
    }

    fn next_transition(&mut self, q: usize, after: u64) -> Option<(u64, ProcState)> {
        self.traces[q].next_change(after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_chains(n: usize, seed: u64) -> Vec<MarkovChain3> {
        let mut rng = sub_rng(seed, 1000);
        (0..n).map(|_| MarkovChain3::sample_paper_model(&mut rng)).collect()
    }

    #[test]
    fn markov_availability_is_reproducible() {
        let chains = paper_chains(5, 17);
        let mut a = MarkovAvailability::new(chains.clone(), 42, false);
        let mut b = MarkovAvailability::new(chains, 42, false);
        for t in 0..500 {
            for q in 0..5 {
                assert_eq!(a.state(q, t), b.state(q, t));
            }
        }
    }

    #[test]
    fn markov_availability_different_seeds_differ() {
        let chains = paper_chains(5, 17);
        let mut a = MarkovAvailability::new(chains.clone(), 1, false);
        let mut b = MarkovAvailability::new(chains, 2, false);
        let same = (0..500)
            .flat_map(|t| (0..5).map(move |q| (q, t)))
            .filter(|&(q, t)| {
                // compare pointwise; count equal slots
                q < 5 && t < 500
            })
            .filter(|&(q, t)| a.state(q, t) == b.state(q, t))
            .count();
        assert!(same < 5 * 500, "two different seeds produced identical realizations");
    }

    #[test]
    fn markov_availability_starts_up_by_default() {
        let chains = paper_chains(8, 3);
        let mut a = MarkovAvailability::new(chains, 7, false);
        for q in 0..8 {
            assert_eq!(a.state(q, 0), ProcState::Up);
        }
    }

    #[test]
    fn markov_availability_out_of_order_queries_consistent() {
        let chains = paper_chains(3, 11);
        let mut a = MarkovAvailability::new(chains.clone(), 5, false);
        let late = a.state(1, 300);
        let early = a.state(1, 10);
        let mut b = MarkovAvailability::new(chains, 5, false);
        // query in the opposite order
        let early2 = b.state(1, 10);
        let late2 = b.state(1, 300);
        assert_eq!(early, early2);
        assert_eq!(late, late2);
    }

    #[test]
    fn scripted_availability_replays_exactly() {
        let mut s = ScriptedAvailability::from_codes(&["UURD", "RRUU"]);
        assert_eq!(s.num_procs(), 2);
        assert_eq!(s.state(0, 0), ProcState::Up);
        assert_eq!(s.state(0, 2), ProcState::Reclaimed);
        assert_eq!(s.state(0, 3), ProcState::Down);
        assert_eq!(s.state(1, 0), ProcState::Reclaimed);
        assert_eq!(s.state(1, 3), ProcState::Up);
        // past the horizon the last state persists
        assert_eq!(s.state(0, 99), ProcState::Down);
        assert!(!s.all_up(&[0, 1], 0));
        assert!(s.all_up(&[0, 1], 10).eq(&false));
    }

    #[test]
    fn all_up_helper() {
        let mut s = ScriptedAvailability::from_codes(&["UU", "UU", "UR"]);
        assert!(s.all_up(&[0, 1], 0));
        assert!(s.all_up(&[0, 1, 2], 0));
        assert!(!s.all_up(&[0, 1, 2], 1));
        assert!(s.all_up(&[], 1));
    }

    #[test]
    fn up_matrix_projects_up_only() {
        // RECLAIMED and DOWN both project to `false`.
        let mut s = ScriptedAvailability::from_codes(&["UURD", "RRUU"]);
        assert_eq!(
            s.up_matrix(4),
            vec![vec![true, true, false, false], vec![false, false, true, true]]
        );
        // A shorter horizon truncates columns, not rows.
        assert_eq!(s.up_matrix(2), vec![vec![true, true], vec![false, false]]);
        // The projection agrees with the Markov backend's state queries.
        let chains = paper_chains(3, 17);
        let mut a = MarkovAvailability::new(chains.clone(), 11, false);
        let mut b = MarkovAvailability::new(chains, 11, false);
        let matrix = a.up_matrix(64);
        for (q, row) in matrix.iter().enumerate() {
            for (t, &up) in row.iter().enumerate() {
                assert_eq!(up, b.state(q, t as u64).is_up());
            }
        }
    }

    #[test]
    fn next_transition_is_consistent_with_state_queries() {
        let chains = paper_chains(4, 31);
        let mut a = MarkovAvailability::new(chains, 9, false);
        for q in 0..4 {
            let mut t = 0u64;
            while t < 2_000 {
                let here = a.state(q, t);
                match a.next_transition(q, t) {
                    Some((when, state)) => {
                        assert!(when > t);
                        assert_ne!(state, here, "transition to the same state");
                        for u in t + 1..when {
                            assert_eq!(a.state(q, u), here, "state changed before the transition");
                        }
                        assert_eq!(a.state(q, when), state);
                        t = when;
                    }
                    None => break,
                }
            }
        }
    }

    #[test]
    fn next_transition_on_absorbing_chain_is_none() {
        let mut a = MarkovAvailability::new(vec![MarkovChain3::always_up()], 5, false);
        assert_eq!(a.state(0, 1_000_000), ProcState::Up);
        assert_eq!(a.next_transition(0, 0), None);
        assert_eq!(a.next_transition(0, 99), None);
    }

    #[test]
    fn scripted_next_transition_scans_the_trace() {
        let mut s = ScriptedAvailability::from_codes(&["UURD", "RRRR"]);
        assert_eq!(s.next_transition(0, 0), Some((2, ProcState::Reclaimed)));
        assert_eq!(s.next_transition(0, 2), Some((3, ProcState::Down)));
        // Past the horizon the last state persists: no more transitions.
        assert_eq!(s.next_transition(0, 3), None);
        assert_eq!(s.next_transition(1, 0), None);
        let mut set = TraceSet::new(vec![StateTrace::parse("UDU").unwrap()]);
        assert_eq!(set.next_transition(0, 0), Some((1, ProcState::Down)));
        assert_eq!(set.next_transition(0, 1), Some((2, ProcState::Up)));
        assert_eq!(set.next_transition(0, 2), None);
    }

    #[test]
    fn query_order_does_not_change_the_realization() {
        // next_transition and state share the same lazily generated
        // realization, so interleaving them in any order must agree.
        let chains = paper_chains(2, 7);
        let mut a = MarkovAvailability::new(chains.clone(), 3, false);
        let mut b = MarkovAvailability::new(chains, 3, false);
        // `a` explores via transitions first, `b` via dense state queries.
        let mut hops = Vec::new();
        let mut t = 0;
        for _ in 0..50 {
            match a.next_transition(0, t) {
                Some((when, state)) => {
                    hops.push((when, state));
                    t = when;
                }
                None => break,
            }
        }
        for (when, state) in hops {
            assert_eq!(b.state(0, when), state);
        }
    }

    #[test]
    fn cursor_queries_in_any_order_match_an_ascending_realization() {
        // The segment cursor is only a hint: backward jumps, repeated slots
        // and two replays reading forward in turn must see exactly what a
        // fresh model queried in ascending order sees.
        const HORIZON: u64 = 3_000;
        let chains = paper_chains(3, 41);
        let mut ascending = MarkovAvailability::new(chains.clone(), 13, false);
        let expected: Vec<Vec<_>> = (0..3)
            .map(|q| {
                (0..HORIZON)
                    .map(|t| (ascending.state(q, t), ascending.next_transition(q, t)))
                    .collect()
            })
            .collect();
        let mut model = MarkovAvailability::new(chains, 13, false);
        let mut check = |q: usize, t: u64| {
            let (state, next) = expected[q][t as usize];
            assert_eq!(model.state(q, t), state, "state of {q} at {t}");
            assert_eq!(model.next_transition(q, t), next, "next transition of {q} after {t}");
        };
        let mut rng = sub_rng(5, 77);
        let mut replays = [0u64, 0u64];
        for step in 0..20_000u64 {
            let q = rng.gen_range(0..3usize);
            match step % 4 {
                // A jump anywhere, usually backwards of the cursor.
                0 => check(q, rng.gen_range(0..HORIZON)),
                // The same slot twice.
                1 => {
                    let t = rng.gen_range(0..HORIZON);
                    check(q, t);
                    check(q, t);
                }
                // Two replays moving forward in small steps, interleaved.
                _ => {
                    let r = &mut replays[(step % 2) as usize];
                    *r = (*r + rng.gen_range(0..40u64)) % HORIZON;
                    check(q, *r);
                }
            }
        }
    }

    #[test]
    fn materialize_matches_lazy_queries() {
        let chains = paper_chains(4, 23);
        let mut a = MarkovAvailability::new(chains, 99, true);
        let expected: Vec<Vec<ProcState>> =
            (0..4).map(|q| (0..100).map(|t| a.state(q, t)).collect()).collect();
        let set = a.materialize(100);
        assert_eq!(set.num_procs(), 4);
        for (q, states) in expected.iter().enumerate() {
            for t in 0..100u64 {
                assert_eq!(set.trace(q).state_at(t), states[t as usize]);
            }
        }
    }
}
