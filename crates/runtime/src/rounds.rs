//! Fork-join rounds: a parent task splits one unit of work into N
//! independently runnable sub-units, lets idle pool workers steal them,
//! and joins all results before its poll returns.
//!
//! # Protocol
//!
//! A [`RoundBoard`] is a slab of in-flight rounds shared by every worker
//! of one executor. The forking task ("parent") installs its sub-units
//! with [`RoundBoard::fork`] (or the all-in-one [`RoundBoard::fork_join`])
//! and the board wakes the pool; any worker whose run queues are empty
//! claims one unclaimed sub-unit at a time ([`claim`](RoundBoard::claim)
//! via the executor's help hook), runs it *outside* the board lock, and
//! checks it back in with [`finish`](RoundBoard::finish). The parent joins
//! **help-first**: it keeps claiming and running its own round's sub-units
//! inline, so it only ever blocks for sub-units that are *actively
//! executing* on another worker — never for unclaimed work. That makes the
//! join wait-free on a single-threaded (deterministic) schedule, where the
//! parent simply runs every sub-unit itself, and deadlock-free on a pool:
//! a helper that claimed a unit is by definition running, and its final
//! `finish` signals the board's condvar.
//!
//! Whoever finishes a round's **last** outstanding sub-unit completes the
//! round; the blocking join waits on the board condvar for exactly that
//! event. The non-blocking half of the API (`fork`/`claim`/`finish`/
//! [`try_join`](RoundBoard::try_join)) exposes each protocol step
//! separately so the schedule explorer can interleave (parent park,
//! sub-unit steal, completion order) exhaustively and prove no join wakeup
//! is lost — see the `explore`-based tests in this module.
//!
//! Sub-unit panics are caught where the unit ran, parked in the unit's
//! slot, and rethrown from the parent's join — so a poisoned sub-batch
//! takes down exactly the forking task (whose poll is already wrapped in
//! `catch_unwind` by the executor), never the helping worker.
//!
//! All round state lives under one mutex; the board adds **no** new
//! atomics to the executor's ordering surface.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

use crate::unpoisoned;

/// One stealable sub-unit of a forked round. For the engine this is a
/// disjoint lane partition of a shard's classification round.
pub trait RoundUnit: Send {
    /// Runs the sub-unit to completion. Called exactly once, by whichever
    /// worker claimed the unit; the unit carries its own inputs and stores
    /// its own outputs.
    fn run(&mut self);
}

/// Identifies an in-flight round on its board (slab index; recycled after
/// the round is joined).
pub type RoundId = usize;

/// Fork-join counters, readable any time via [`RoundBoard::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Rounds forked onto the board.
    pub rounds: u64,
    /// Sub-units executed (by parents and helpers together).
    pub units: u64,
    /// Sub-units executed by a pool worker's help hook rather than the
    /// forking task — actual intra-round parallelism.
    pub helped: u64,
}

enum UnitSlot<U> {
    /// Installed by `fork`, not yet claimed by anyone.
    Unclaimed(U),
    /// Claimed; the unit itself is out being executed.
    Running,
    /// Checked back in, result inside.
    Done(U),
    /// The unit's `run` panicked; the payload is rethrown at join.
    Panicked(Box<dyn Any + Send>),
}

struct Round<U> {
    units: Vec<UnitSlot<U>>,
    /// `Unclaimed` slots in `units`.
    unclaimed: usize,
    /// `Running` slots in `units`.
    running: usize,
    /// False once joined (slot is on the free list).
    live: bool,
}

impl<U> Round<U> {
    fn complete(&self) -> bool {
        self.live && self.unclaimed == 0 && self.running == 0
    }
}

struct BoardState<U> {
    rounds: Vec<Round<U>>,
    free: Vec<RoundId>,
    /// Total `Unclaimed` units across all live rounds — lets the pool's
    /// help hook bail with one lock and no scan when there is nothing to
    /// steal (the common case on every park).
    claimable: usize,
    stats: RoundStats,
}

/// Hook through which pool workers steal round sub-units without knowing
/// the unit type (the executor stores it type-erased).
pub(crate) trait UnitSource: Send + Sync {
    /// Claims and runs one sub-unit if any round has unclaimed work.
    fn claim_and_run(&self) -> bool;
    /// Registers the executor's wake callback, invoked on every fork so
    /// parked workers come help.
    fn set_waker(&self, waker: Box<dyn Fn() + Send + Sync>);
}

/// The shared fork-join board. Create one, hand it to
/// [`Executor::start_with_rounds`](crate::Executor::start_with_rounds)
/// (wrapped in an `Arc`), and keep a clone wherever tasks need to fork.
pub struct RoundBoard<U: RoundUnit> {
    state: Mutex<BoardState<U>>,
    /// Signaled whenever a round completes; blocking joiners wait here.
    joined: Condvar,
    waker: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl<U: RoundUnit> Default for RoundBoard<U> {
    fn default() -> Self {
        RoundBoard::new()
    }
}

impl<U: RoundUnit> RoundBoard<U> {
    /// An empty board with no rounds in flight.
    pub fn new() -> RoundBoard<U> {
        RoundBoard {
            state: Mutex::new(BoardState {
                rounds: Vec::new(),
                free: Vec::new(),
                claimable: 0,
                stats: RoundStats::default(),
            }),
            joined: Condvar::new(),
            waker: Mutex::new(None),
        }
    }

    /// Forks `units` as a new round and wakes the pool. The caller must
    /// eventually join the returned round (via [`RoundBoard::try_join`] or
    /// the loop inside [`RoundBoard::fork_join`]).
    ///
    /// # Panics
    ///
    /// Panics if `units` is empty — an empty round has no completion event
    /// to join on.
    pub fn fork(&self, units: Vec<U>) -> RoundId {
        assert!(!units.is_empty(), "cannot fork an empty round");
        let id = {
            let mut state = unpoisoned(self.state.lock());
            state.claimable += units.len();
            state.stats.rounds += 1;
            let round = Round {
                unclaimed: units.len(),
                units: units.into_iter().map(UnitSlot::Unclaimed).collect(),
                running: 0,
                live: true,
            };
            match state.free.pop() {
                Some(id) => {
                    state.rounds[id] = round;
                    id
                }
                None => {
                    state.rounds.push(round);
                    state.rounds.len() - 1
                }
            }
        };
        if let Some(wake) = unpoisoned(self.waker.lock()).as_ref() {
            wake();
        }
        id
    }

    /// Claims the lowest-index unclaimed sub-unit of `round`, if any. The
    /// caller runs it and must check it back in with [`RoundBoard::finish`]
    /// (or [`RoundBoard::finish_panicked`]).
    pub fn claim(&self, round: RoundId) -> Option<(usize, U)> {
        let mut state = unpoisoned(self.state.lock());
        let claimed = Self::claim_in(&mut state, round)?;
        state.stats.units += 1;
        Some(claimed)
    }

    fn claim_in(state: &mut BoardState<U>, round: RoundId) -> Option<(usize, U)> {
        let r = &mut state.rounds[round];
        if !r.live || r.unclaimed == 0 {
            return None;
        }
        #[expect(
            clippy::expect_used,
            reason = "`unclaimed` counts exactly the Unclaimed slots; a mismatch is a \
                      board bug, not a recoverable condition"
        )]
        let idx = r
            .units
            .iter()
            .position(|slot| matches!(slot, UnitSlot::Unclaimed(_)))
            .expect("unclaimed count out of sync with slots");
        let UnitSlot::Unclaimed(unit) = std::mem::replace(&mut r.units[idx], UnitSlot::Running)
        else {
            // `idx` was just found by matching Unclaimed.
            unreachable!("slot changed under the board lock")
        };
        r.unclaimed -= 1;
        r.running += 1;
        state.claimable -= 1;
        Some((idx, unit))
    }

    /// Checks a claimed sub-unit back in. Returns `true` when this was the
    /// round's last outstanding unit — the round is now joinable, and on
    /// that event a blocking joiner has already been signaled; a *parked*
    /// parent task (non-blocking join) must be notified by the caller.
    pub fn finish(&self, round: RoundId, idx: usize, unit: U) -> bool {
        self.check_in(round, idx, UnitSlot::Done(unit))
    }

    /// [`RoundBoard::finish`] for a sub-unit whose `run` panicked; the
    /// payload is rethrown when the round is joined.
    pub fn finish_panicked(
        &self,
        round: RoundId,
        idx: usize,
        payload: Box<dyn Any + Send>,
    ) -> bool {
        self.check_in(round, idx, UnitSlot::Panicked(payload))
    }

    fn check_in(&self, round: RoundId, idx: usize, slot: UnitSlot<U>) -> bool {
        let mut state = unpoisoned(self.state.lock());
        let r = &mut state.rounds[round];
        debug_assert!(
            matches!(r.units[idx], UnitSlot::Running),
            "finishing a unit that was not claimed"
        );
        r.units[idx] = slot;
        r.running -= 1;
        let completed = r.complete();
        drop(state);
        if completed {
            // Wake a blocking joiner; notify_all because joiners of
            // *different* rounds share the condvar.
            self.joined.notify_all();
        }
        completed
    }

    /// Takes a completed round's sub-units, in fork order; `None` while
    /// any sub-unit is still unclaimed or running.
    ///
    /// # Panics
    ///
    /// Rethrows the first sub-unit panic, if any.
    pub fn try_join(&self, round: RoundId) -> Option<Vec<U>> {
        let mut state = unpoisoned(self.state.lock());
        if !state.rounds[round].complete() {
            return None;
        }
        let (units, panic) = Self::collect(&mut state, round);
        drop(state);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        Some(units)
    }

    /// Forks `units`, runs as many as possible on the calling thread
    /// (help-first), waits for any stolen stragglers, and returns the
    /// completed units in fork order. Single-unit rounds run inline
    /// without touching the board.
    ///
    /// # Panics
    ///
    /// Rethrows the first sub-unit panic after every other sub-unit has
    /// settled — callers inside a task poll are contained by the
    /// executor's `catch_unwind`.
    pub fn fork_join(&self, mut units: Vec<U>) -> Vec<U> {
        if units.len() <= 1 {
            for unit in &mut units {
                unit.run();
            }
            return units;
        }
        let round = self.fork(units);
        // Help-first: the parent drains its own round's unclaimed units,
        // so it never waits on work nobody has picked up.
        while let Some((idx, mut unit)) = self.claim(round) {
            match catch_unwind(AssertUnwindSafe(|| unit.run())) {
                Ok(()) => self.finish(round, idx, unit),
                Err(payload) => self.finish_panicked(round, idx, payload),
            };
        }
        // Whatever is left is running on helper workers right now; block
        // for their check-ins.
        let mut state = unpoisoned(self.state.lock());
        while !state.rounds[round].complete() {
            state = unpoisoned(self.joined.wait(state));
        }
        let (units, panic) = Self::collect(&mut state, round);
        drop(state);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        units
    }

    /// Frees a complete round's slot and splits its units from the first
    /// panic payload (the caller rethrows *after* releasing the lock, so
    /// an unwinding joiner cannot poison the board mutex).
    fn collect(state: &mut BoardState<U>, round: RoundId) -> (Vec<U>, Option<Box<dyn Any + Send>>) {
        let r = &mut state.rounds[round];
        r.live = false;
        let slots = std::mem::take(&mut r.units);
        state.free.push(round);
        let mut units = Vec::with_capacity(slots.len());
        let mut panic = None;
        for slot in slots {
            match slot {
                UnitSlot::Done(unit) => units.push(unit),
                UnitSlot::Panicked(payload) => {
                    panic.get_or_insert(payload);
                }
                // `collect` only runs on complete rounds, which by
                // definition have no unclaimed or running slots.
                UnitSlot::Unclaimed(_) | UnitSlot::Running => {
                    unreachable!("collecting an incomplete round")
                }
            }
        }
        (units, panic)
    }

    /// Fork-join counters so far.
    pub fn stats(&self) -> RoundStats {
        unpoisoned(self.state.lock()).stats
    }
}

impl<U: RoundUnit> UnitSource for RoundBoard<U> {
    fn claim_and_run(&self) -> bool {
        let (round, idx, mut unit) = {
            let mut state = unpoisoned(self.state.lock());
            if state.claimable == 0 {
                return false;
            }
            #[expect(
                clippy::expect_used,
                reason = "`claimable` > 0 implies some live round has unclaimed units; a \
                          mismatch is a board bug"
            )]
            let round = state
                .rounds
                .iter()
                .position(|r| r.live && r.unclaimed > 0)
                .expect("claimable count out of sync with rounds");
            #[expect(
                clippy::expect_used,
                reason = "the round was just found with unclaimed > 0 and the lock was never \
                          released"
            )]
            let (idx, unit) = Self::claim_in(&mut state, round)
                .expect("round lost its unclaimed units under the lock");
            state.stats.units += 1;
            state.stats.helped += 1;
            (round, idx, unit)
        };
        // Run outside the lock: this is the actual parallelism.
        match catch_unwind(AssertUnwindSafe(|| unit.run())) {
            Ok(()) => self.finish(round, idx, unit),
            Err(payload) => self.finish_panicked(round, idx, payload),
        };
        true
    }

    fn set_waker(&self, waker: Box<dyn Fn() + Send + Sync>) {
        *unpoisoned(self.waker.lock()) = Some(waker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, Poll, Schedule, Task, TestSchedule};
    use crate::explore::{explore, ExploreConfig, Source, SourceStep, Trial, TrialSource};
    use std::sync::{Arc, Mutex};

    struct DoubleUnit {
        input: u64,
        output: u64,
    }

    impl RoundUnit for DoubleUnit {
        fn run(&mut self) {
            self.output = self.input * 2;
        }
    }

    /// Forks `units_per_round` sub-units per poll, `rounds_left` times,
    /// summing the joined outputs — a shard flush in miniature.
    struct ForkTask {
        board: Arc<RoundBoard<DoubleUnit>>,
        rounds_left: usize,
        units_per_round: usize,
        total: u64,
    }

    impl Task for ForkTask {
        type Output = u64;

        fn poll(&mut self, _budget: usize) -> Poll {
            if self.rounds_left == 0 {
                return Poll::Complete;
            }
            self.rounds_left -= 1;
            let units = (1..=self.units_per_round as u64)
                .map(|input| DoubleUnit { input, output: 0 })
                .collect();
            for unit in self.board.fork_join(units) {
                self.total += unit.output;
            }
            Poll::Runnable
        }

        fn complete(self) -> u64 {
            self.total
        }
    }

    fn expected_total(rounds: usize, units: usize) -> u64 {
        (rounds * units * (units + 1)) as u64
    }

    #[test]
    fn fork_join_single_unit_runs_inline() {
        let board: RoundBoard<DoubleUnit> = RoundBoard::new();
        let units = board.fork_join(vec![DoubleUnit {
            input: 21,
            output: 0,
        }]);
        assert_eq!(units[0].output, 42);
        // Single-unit rounds never touch the board.
        assert_eq!(board.stats(), RoundStats::default());
    }

    #[test]
    fn fork_join_without_executor_runs_everything_help_first() {
        let board: RoundBoard<DoubleUnit> = RoundBoard::new();
        let units = board.fork_join(
            (1..=5)
                .map(|input| DoubleUnit { input, output: 0 })
                .collect(),
        );
        let outputs: Vec<u64> = units.iter().map(|u| u.output).collect();
        assert_eq!(outputs, [2, 4, 6, 8, 10], "join preserves fork order");
        let stats = board.stats();
        assert_eq!((stats.rounds, stats.units, stats.helped), (1, 5, 0));
    }

    #[test]
    fn fork_join_on_pool_completes_every_round() {
        const ROUNDS: usize = 40;
        const UNITS: usize = 4;
        let board = Arc::new(RoundBoard::new());
        let tasks: Vec<ForkTask> = (0..2)
            .map(|_| ForkTask {
                board: Arc::clone(&board),
                rounds_left: ROUNDS,
                units_per_round: UNITS,
                total: 0,
            })
            .collect();
        let executor =
            Executor::start_with_rounds(tasks, Schedule::Pool { workers: 3 }, Arc::clone(&board));
        executor.notify(0);
        executor.notify(1);
        let (outputs, _) = executor.join();
        for output in outputs {
            assert_eq!(output.unwrap(), expected_total(ROUNDS, UNITS));
        }
        let stats = board.stats();
        assert_eq!(stats.rounds, 2 * ROUNDS as u64);
        assert_eq!(stats.units, (2 * ROUNDS * UNITS) as u64);
    }

    #[test]
    fn fork_join_on_deterministic_schedule_is_parent_only() {
        let board = Arc::new(RoundBoard::new());
        let tasks = vec![ForkTask {
            board: Arc::clone(&board),
            rounds_left: 10,
            units_per_round: 3,
            total: 0,
        }];
        let executor = Executor::start_with_rounds(
            tasks,
            Schedule::Deterministic(TestSchedule::default()),
            Arc::clone(&board),
        );
        executor.notify(0);
        let (outputs, _) = executor.join();
        assert_eq!(
            outputs.into_iter().next().unwrap().unwrap(),
            expected_total(10, 3)
        );
        let stats = board.stats();
        assert_eq!(stats.units, 30);
        assert_eq!(
            stats.helped, 0,
            "single-threaded schedules have no helpers: {stats:?}"
        );
    }

    struct BombUnit {
        fuse: bool,
    }

    impl RoundUnit for BombUnit {
        fn run(&mut self) {
            assert!(!self.fuse, "sub-unit bomb went off");
        }
    }

    #[test]
    fn unit_panic_is_rethrown_at_the_forking_task_only() {
        struct BombRound {
            board: Arc<RoundBoard<BombUnit>>,
            armed: bool,
        }
        impl Task for BombRound {
            type Output = ();
            fn poll(&mut self, _budget: usize) -> Poll {
                let armed = self.armed;
                self.board.fork_join(
                    (0..3)
                        .map(|i| BombUnit {
                            fuse: armed && i == 1,
                        })
                        .collect(),
                );
                Poll::Complete
            }
            fn complete(self) {}
        }
        let board = Arc::new(RoundBoard::new());
        let tasks = vec![
            BombRound {
                board: Arc::clone(&board),
                armed: false,
            },
            BombRound {
                board: Arc::clone(&board),
                armed: true,
            },
        ];
        let executor =
            Executor::start_with_rounds(tasks, Schedule::Pool { workers: 2 }, Arc::clone(&board));
        executor.notify(0);
        executor.notify(1);
        let (outputs, _) = executor.join();
        assert!(outputs[0].is_ok(), "healthy round must complete");
        assert!(
            outputs[1].is_err(),
            "the sub-unit panic surfaces at the forking task's join"
        );
    }

    // --- explore(): exhaustive fork-join interleaving trees -------------
    //
    // The parent task forks a round and then *parks* (Poll::Idle) whenever
    // sub-units are still outstanding, claiming one unit per poll
    // (help-first in miniature). Each helper source models one pool worker
    // stealing a sub-unit: step 1 claims, step 2 runs + finishes, and —
    // per the join protocol — notifies the parent iff its finish completed
    // the round. The explorer interleaves (parent polls/parks, helper
    // claims, completion order, in-window injections) exhaustively; a
    // deadlocked leaf is precisely a lost join wakeup.

    const EXPLORE_UNITS: u64 = 3;

    struct JoinParent {
        board: Arc<RoundBoard<DoubleUnit>>,
        round: Arc<Mutex<Option<RoundId>>>,
        result: Option<u64>,
    }

    impl Task for JoinParent {
        type Output = u64;

        fn poll(&mut self, _budget: usize) -> Poll {
            let round = {
                let mut slot = self.round.lock().unwrap();
                match *slot {
                    Some(round) => round,
                    None => {
                        let round = self.board.fork(
                            (1..=EXPLORE_UNITS)
                                .map(|input| DoubleUnit { input, output: 0 })
                                .collect(),
                        );
                        *slot = Some(round);
                        round
                    }
                }
            };
            if let Some((idx, mut unit)) = self.board.claim(round) {
                unit.run();
                self.board.finish(round, idx, unit);
            }
            match self.board.try_join(round) {
                Some(units) => {
                    self.result = Some(units.iter().map(|u| u.output).sum());
                    Poll::Complete
                }
                None => Poll::Idle,
            }
        }

        fn complete(self) -> u64 {
            self.result.expect("parent joined its round")
        }
    }

    /// One virtual helper worker: claims a sub-unit (step 1), then runs and
    /// finishes it (step 2), notifying the parent after every finish
    /// (spurious notifies are free; the one after the *completing* finish
    /// is the join wakeup). `broken` models a broken join counter: the
    /// helper believes the round is never complete, so the completing
    /// finish — exactly the notify the join depends on — is skipped.
    fn helper_source(
        board: Arc<RoundBoard<DoubleUnit>>,
        round: Arc<Mutex<Option<RoundId>>>,
        broken: bool,
    ) -> TrialSource<'static> {
        let mut held: Option<(RoundId, usize, DoubleUnit)> = None;
        let step: Source<'static> = Box::new(move |notify| {
            if let Some((round, idx, mut unit)) = held.take() {
                unit.run();
                let completed = board.finish(round, idx, unit);
                if !(broken && completed) {
                    notify(0);
                }
                return SourceStep::Done;
            }
            let Some(round) = *round.lock().unwrap() else {
                // The parent has not forked yet; retry after its poll.
                return SourceStep::Blocked;
            };
            match board.claim(round) {
                Some((idx, unit)) => {
                    held = Some((round, idx, unit));
                    SourceStep::Ran
                }
                // Nothing left to steal: this helper is done without ever
                // having owed anyone a notify.
                None => SourceStep::Done,
            }
        });
        TrialSource { target: 0, step }
    }

    fn join_trial(broken: bool) -> Trial<'static, JoinParent> {
        let board = Arc::new(RoundBoard::new());
        let round = Arc::new(Mutex::new(None));
        let sources = (0..EXPLORE_UNITS)
            .map(|_| helper_source(Arc::clone(&board), Arc::clone(&round), broken))
            .collect();
        Trial {
            tasks: vec![JoinParent {
                board,
                round,
                result: None,
            }],
            sources,
            initial_notify: vec![0],
        }
    }

    /// The fork-join acceptance tree: every interleaving of (parent
    /// park/help, sub-unit steal, completion order) completes with the
    /// same joined sum and no deadlock — no schedule loses a join wakeup.
    #[test]
    fn explore_fork_join_no_lost_join_wakeup() {
        let expected = [EXPLORE_UNITS * (EXPLORE_UNITS + 1)];
        let mut completions = 0u64;
        let report = explore(
            &ExploreConfig {
                workers: 2,
                max_budget: 1,
                ..ExploreConfig::default()
            },
            || join_trial(false),
            |outputs| {
                completions += 1;
                assert_eq!(outputs, expected, "fork-join result diverged");
            },
        );
        assert_eq!(report.deadlocks, 0, "lost join wakeup found: {report:?}");
        assert_eq!(report.leaves, completions);
        let floor = if cfg!(miri) { 20 } else { 100 };
        assert!(
            report.leaves > floor,
            "degenerate fork-join tree: {report:?}"
        );
        println!(
            "fork-join tree: {} leaves, {} polls, peak depth {}",
            report.leaves, report.polls, report.peak_depth
        );
    }

    /// Meta-test: a broken join counter — helpers that complete the round
    /// without notifying the parked parent — must show up as deadlocks.
    #[test]
    fn explore_catches_broken_join_counter() {
        let report = explore(
            &ExploreConfig {
                workers: 1,
                max_budget: 1,
                ..ExploreConfig::default()
            },
            || join_trial(true),
            |_| {},
        );
        assert!(
            report.deadlocks > 0,
            "the broken join counter went undetected: {report:?}"
        );
    }

    /// Meta-test: the join-completion notify travels through the same
    /// RUNNING→DIRTY window as any other notify — with that window opened
    /// (simulated lost wakeup), some schedule must strand the parent.
    #[test]
    fn explore_catches_join_wakeup_through_dirty_window() {
        let report = explore(
            &ExploreConfig {
                workers: 1,
                max_budget: 1,
                simulate_lost_wakeup: true,
                ..ExploreConfig::default()
            },
            || join_trial(false),
            |_| {},
        );
        assert!(
            report.deadlocks > 0,
            "an in-window join notify was never exercised: {report:?}"
        );
    }
}
