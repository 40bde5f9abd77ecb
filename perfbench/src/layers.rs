//! Wrappers that time the calls into a layer's public trait from outside the
//! program: [`TracedScheduler`] around a registry-built [`Scheduler`] and
//! [`TracedAvailability`] around an [`AvailabilityModel`] replay.

use crate::trace::CallTimer;
use dg_availability::{AvailabilityModel, ProcState};
use dg_sim::{Decision, Reevaluation, Scheduler, SimView};
use std::time::Instant;

/// Times every [`Scheduler::decide`] call of the wrapped scheduler and counts
/// the decisions that change the installed configuration.
pub struct TracedScheduler<'a> {
    inner: Box<dyn Scheduler>,
    timer: &'a CallTimer,
    durations_ns: &'a mut Vec<u64>,
    /// Decisions that installed a configuration different from the current one.
    pub reconfigurations: u64,
}

impl<'a> TracedScheduler<'a> {
    /// Wrap `inner`; call durations are appended to `durations_ns`.
    pub fn new(
        inner: Box<dyn Scheduler>,
        timer: &'a CallTimer,
        durations_ns: &'a mut Vec<u64>,
    ) -> Self {
        TracedScheduler { inner, timer, durations_ns, reconfigurations: 0 }
    }
}

impl Scheduler for TracedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &SimView<'_>) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide(view);
        let end = Instant::now();
        self.timer.record(start, end);
        self.durations_ns.push((end - start).as_nanos() as u64);
        if let Decision::NewConfiguration(a) = &decision {
            if view.current.is_none_or(|current| current.assignment != *a) {
                self.reconfigurations += 1;
            }
        }
        decision
    }

    fn on_iteration_complete(&mut self, completed: u64) {
        self.inner.on_iteration_complete(completed);
    }

    fn reevaluation(&self) -> Reevaluation {
        self.inner.reevaluation()
    }
}

/// Times every availability query of the wrapped model. The provided trait
/// methods (`all_up`, `up_matrix`) keep their default bodies, which route
/// through the timed `state`.
pub struct TracedAvailability<'a, A> {
    inner: A,
    timer: &'a CallTimer,
}

impl<'a, A: AvailabilityModel> TracedAvailability<'a, A> {
    /// Wrap `inner`.
    pub fn new(inner: A, timer: &'a CallTimer) -> Self {
        TracedAvailability { inner, timer }
    }
}

impl<A: AvailabilityModel> AvailabilityModel for TracedAvailability<'_, A> {
    fn num_procs(&self) -> usize {
        self.inner.num_procs()
    }

    fn state(&mut self, q: usize, t: u64) -> ProcState {
        let inner = &mut self.inner;
        self.timer.time(|| inner.state(q, t))
    }

    fn next_transition(&mut self, q: usize, after: u64) -> Option<(u64, ProcState)> {
        let inner = &mut self.inner;
        self.timer.time(|| inner.next_transition(q, after))
    }
}
