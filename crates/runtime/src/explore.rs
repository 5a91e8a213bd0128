//! Bounded exhaustive schedule exploration — a loom-lite DFS over the
//! executor's scheduling choice tree.
//!
//! The pool's schedule is whatever the OS threads' timing makes it, so
//! repeated pool runs sample interleavings but prove nothing. This module
//! instead **enumerates** them: a trial (tasks plus ordered external event
//! sources) is re-run once per path through the choice tree, where a
//! choice point is
//!
//! - which enabled action fires next — an external source step (push +
//!   notify) or a schedule event polling the task at one position of the
//!   run queue (any position, not just the head — so every order in which
//!   free workers could take queued tasks is covered),
//! - for a poll: the poll budget (`1..=max_budget`), and
//! - whether a source step is injected *inside* the poll's
//!   notify-while-running window (between [`Shared::poll_task`] and
//!   [`Shared::settle`]) — the window the executor's DIRTY state guards.
//!
//! Between actions the world is quiescent, so the executor's state-machine
//! invariants must hold exactly: every task IDLE/QUEUED/DONE, QUEUED ⇔
//! exactly one entry in the run queue, `remaining` = non-DONE count. Each leaf
//! either completes every task (its outputs are handed to the caller for
//! decision-equality checks) or deadlocks — runnable work exists but
//! nothing is queued — which is precisely a lost wakeup.
//!
//! Exploration is exhaustive because the simulation is deterministic: the
//! first run records every choice point's arity, and successive runs
//! replay a prefix and take the first untried alternative (depth-first,
//! pre-order), backtracking until the root's alternatives are spent.

use crate::executor::{Shared, Task};

/// What one external-source step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStep {
    /// The step ran (pushed input, notified, closed a queue, …).
    Ran,
    /// The step cannot run until a consumer makes progress (its queue is
    /// full); re-enabled after the next poll.
    Blocked,
    /// The step ran (possibly as a no-op) and was the source's **last** —
    /// the source is never stepped again. Returning Done on the final real
    /// step (rather than on an extra empty call) keeps the choice tree
    /// free of do-nothing nodes.
    Done,
}

/// An ordered sequence of external events (one producer's timeline).
///
/// Each call performs at most one step; `notify(id)` marks task `id`
/// runnable exactly like [`Executor::notify`](crate::Executor::notify).
/// Steps must be deterministic: the explorer rebuilds the trial for every
/// path and replays prefixes.
pub type Source<'a> = Box<dyn FnMut(&mut dyn FnMut(usize)) -> SourceStep + 'a>;

/// One producer timeline plus the task it feeds.
pub struct TrialSource<'a> {
    /// The task this source's pushes notify. Used for a sound reduction:
    /// in-window injection is only enumerated into polls of this task —
    /// an in-window notify to any *other* task takes the ordinary
    /// IDLE→QUEUED path, indistinguishable from delivering the same step
    /// as its own action at the next quiescent point.
    pub target: usize,
    /// The timeline itself.
    pub step: Source<'a>,
}

/// One world to explore: the tasks plus the external event timelines that
/// drive them. Rebuilt from scratch for every path.
pub struct Trial<'a, T: Task> {
    /// The tasks, identified by index (as with the executor).
    pub tasks: Vec<T>,
    /// External producers; sources are identified by index in diagnostics.
    pub sources: Vec<TrialSource<'a>>,
    /// Tasks notified before the first action — for batch-style trials
    /// whose input is pre-filled (and usually closed) up front, so every
    /// task is already queued when the first schedule choice is made.
    pub initial_notify: Vec<usize>,
}

/// Abort if the tree has more than this many leaves — a guard against
/// accidentally unbounded trials, not a sampling knob.
const MAX_LEAVES: u64 = 2_000_000;

/// Abort any single path longer than this many choice points.
const MAX_DEPTH: usize = 10_000;

/// The poll-budget range to enumerate, and the meta-test's bug injection.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Poll budgets are enumerated over `1..=max_budget`.
    pub max_budget: usize,
    /// Bug injection: in-window notifies skip the RUNNING→DIRTY
    /// transition, simulating an executor with the lost-wakeup window
    /// open. Used by the meta-test that proves the explorer would catch
    /// that bug; never set outside tests.
    pub simulate_lost_wakeup: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_budget: 1,
            simulate_lost_wakeup: false,
        }
    }
}

/// What an exploration covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Total schedule-tree leaves enumerated (completions + deadlocks).
    pub leaves: u64,
    /// Leaves where unfinished tasks remained but nothing was runnable —
    /// lost wakeups. Zero for a correct executor.
    pub deadlocks: u64,
    /// Task polls summed over every path.
    pub polls: u64,
    /// Longest path, in choice points.
    pub peak_depth: usize,
}

/// Depth-first replay oracle over the choice tree.
///
/// A path is the sequence of `(chosen, arity)` pairs taken at each choice
/// point with arity > 1 (forced moves are not recorded). `advance` steps
/// to the next path in pre-order; exploration ends when the whole prefix
/// is spent.
struct Oracle {
    path: Vec<(usize, usize)>,
    depth: usize,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            path: Vec::new(),
            depth: 0,
        }
    }

    /// Returns the alternative to take at a choice point with `arity`
    /// options: the recorded one while replaying the prefix, the first
    /// option at fresh depth.
    fn choose(&mut self, arity: usize) -> usize {
        debug_assert!(arity > 0, "choice point with no options");
        if arity == 1 {
            return 0;
        }
        if self.depth == self.path.len() {
            self.path.push((0, arity));
        }
        debug_assert_eq!(
            self.path[self.depth].1, arity,
            "nondeterministic trial: arity changed on replay"
        );
        let chosen = self.path[self.depth].0;
        self.depth += 1;
        chosen
    }

    /// Rewinds to the deepest choice point with an untried alternative;
    /// false when the tree is exhausted.
    fn advance(&mut self) -> bool {
        self.depth = 0;
        while let Some((chosen, arity)) = self.path.pop() {
            if chosen + 1 < arity {
                self.path.push((chosen + 1, arity));
                return true;
            }
        }
        false
    }
}

/// An enabled action at a quiescent point.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Step external source `s`.
    Source(usize),
    /// Take the run-queue entry at this position (0 is the head) and poll
    /// it.
    Poll(usize),
}

/// Exhaustively explores every schedule of `build()`'s world, invoking
/// `at_leaf` with the task outputs (in task order) at every *completed*
/// leaf. Deadlocked leaves are tallied in the report instead.
///
/// # Panics
///
/// Panics if a state-machine invariant breaks, a task panics, the tree
/// outgrows its fixed bounds (2,000,000 leaves, 10,000 choice points on one
/// path), or the trial is nondeterministic (arities must replay
/// identically).
pub fn explore<T: Task, F, L>(config: &ExploreConfig, mut build: F, mut at_leaf: L) -> ExploreReport
where
    F: FnMut() -> Trial<'static, T>,
    L: FnMut(&[T::Output]),
{
    assert!(config.max_budget > 0, "explorer needs a positive budget");
    let mut oracle = Oracle::new();
    let mut report = ExploreReport::default();
    loop {
        let outcome = run_one_path(config, &mut build, &mut oracle, &mut report);
        report.leaves += 1;
        report.peak_depth = report.peak_depth.max(oracle.depth);
        match outcome {
            PathOutcome::Completed(outputs) => at_leaf(&outputs),
            PathOutcome::Deadlocked => report.deadlocks += 1,
        }
        // Bound guard: a tree this size means the trial is far
        // bigger than exhaustive exploration can cover; fail loudly rather
        // than burn CI time.
        assert!(
            report.leaves <= MAX_LEAVES,
            "schedule tree exceeds {MAX_LEAVES} leaves"
        );
        if !oracle.advance() {
            return report;
        }
    }
}

enum PathOutcome<O> {
    Completed(Vec<O>),
    Deadlocked,
}

/// Runs one root-to-leaf path of the choice tree.
fn run_one_path<T: Task, F>(
    config: &ExploreConfig,
    build: &mut F,
    oracle: &mut Oracle,
    report: &mut ExploreReport,
) -> PathOutcome<T::Output>
where
    F: FnMut() -> Trial<'static, T>,
{
    let trial = build();
    let task_count = trial.tasks.len();
    assert!(task_count > 0, "explorer needs at least one task");
    let shared = Shared::new(trial.tasks);
    for &id in &trial.initial_notify {
        shared.notify(id);
    }
    let mut sources = trial.sources;
    // Per-source status: exhausted sources drop out of the action set for
    // good, blocked ones until the next poll (only consumer progress can
    // free queue space).
    let mut done = vec![false; sources.len()];
    let mut blocked = vec![false; sources.len()];
    let dirty_on_running = !config.simulate_lost_wakeup;

    loop {
        check_invariants(&shared, task_count);
        if shared.remaining() == 0 {
            let outputs = (0..task_count)
                .map(|id| {
                    #[expect(
                        clippy::expect_used,
                        reason = "remaining() == 0 means every slot reached DONE, which \
                                  always stores an output first"
                    )]
                    let result = shared.take_output(id).expect("done task has an output");
                    match result {
                        Ok(output) => output,
                        // A task panic inside an exploration is a test
                        // failure; resurface its payload.
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                })
                .collect();
            return PathOutcome::Completed(outputs);
        }

        // Enumerate the enabled actions, in a fixed order so the choice
        // tree is stable: sources first, then queue positions head first.
        let mut actions: Vec<Action> = (0..sources.len())
            .filter(|&s| !done[s] && !blocked[s])
            .map(Action::Source)
            .collect();
        actions.extend((0..shared.queue_snapshot().len()).map(Action::Poll));

        if actions.is_empty() {
            // Tasks remain but nothing is queued and no source can move:
            // with a correct executor this is unreachable (any pending
            // input implies a notify already queued its task), so it is
            // exactly a lost wakeup.
            return PathOutcome::Deadlocked;
        }

        // Bound guard against runaway trials, as with MAX_LEAVES.
        assert!(
            oracle.depth <= MAX_DEPTH,
            "schedule path exceeds {MAX_DEPTH} choice points"
        );

        match actions[oracle.choose(actions.len())] {
            Action::Source(s) => {
                let stepped = (sources[s].step)(&mut |id| shared.notify(id));
                match stepped {
                    SourceStep::Ran => {}
                    SourceStep::Blocked => blocked[s] = true,
                    SourceStep::Done => done[s] = true,
                }
            }
            Action::Poll(position) => {
                #[expect(
                    clippy::expect_used,
                    reason = "the position was enumerated from the queue's length and nothing \
                              ran since — the simulation is single-threaded"
                )]
                let id = shared
                    .dequeue(position)
                    .expect("run queue shrank between snapshot and dequeue");
                poll_one(
                    config,
                    &shared,
                    &mut sources,
                    &mut done,
                    &mut blocked,
                    id,
                    dirty_on_running,
                    oracle,
                    report,
                );
            }
        }
    }
}

/// One schedule event: budget choice, poll, optional in-window source
/// injection, settle. Unblocks every source afterwards — the poll may have
/// freed queue space.
#[allow(clippy::too_many_arguments, reason = "every piece of explorer state")]
fn poll_one<T: Task>(
    config: &ExploreConfig,
    shared: &Shared<T>,
    sources: &mut [TrialSource<'static>],
    done: &mut [bool],
    blocked: &mut [bool],
    id: usize,
    dirty_on_running: bool,
    oracle: &mut Oracle,
    report: &mut ExploreReport,
) {
    let budget = 1 + oracle.choose(config.max_budget);
    report.polls += 1;
    let polled = shared.poll_task(id, budget);
    // The task is RUNNING right now: enumerate "no injection" plus one step
    // of each live source *feeding this task* landing inside the window
    // (see [`TrialSource::target`] for why others are skipped).
    let eligible: Vec<usize> = (0..sources.len())
        .filter(|&s| sources[s].target == id && !done[s] && !blocked[s])
        .collect();
    let pick = oracle.choose(1 + eligible.len());
    if pick > 0 {
        let s = eligible[pick - 1];
        let stepped = (sources[s].step)(&mut |tid| shared.notify_full(tid, dirty_on_running));
        match stepped {
            SourceStep::Ran => {}
            SourceStep::Blocked => blocked[s] = true,
            SourceStep::Done => done[s] = true,
        }
    }
    shared.settle(id, polled);
    for b in blocked.iter_mut() {
        *b = false;
    }
}

/// The executor state-machine invariants, checked at every quiescent
/// point: no task mid-poll, QUEUED ⇔ exactly one entry in the run queue,
/// and the remaining-counter agrees with the states.
fn check_invariants<T: Task>(shared: &Shared<T>, task_count: usize) {
    let mut queue_entries = vec![0usize; task_count];
    for id in shared.queue_snapshot() {
        queue_entries[id] += 1;
    }
    let mut not_done = 0usize;
    for (id, &entries) in queue_entries.iter().enumerate().take(task_count) {
        let state = shared.state(id);
        match state {
            crate::executor::IDLE | crate::executor::DONE => {
                assert_eq!(
                    entries, 0,
                    "task {id} is idle/done but sits in the run queue"
                )
            }
            crate::executor::QUEUED => assert_eq!(
                entries, 1,
                "task {id} is QUEUED with {entries} run-queue entries (must be exactly 1)"
            ),
            #[expect(
                clippy::panic,
                reason = "invariant-check harness — RUNNING/DIRTY at a quiescent point means \
                          a poll leaked past `settle`, and the exploration must abort loudly \
                          rather than report a clean tree"
            )]
            other => panic!("task {id} in state {other} at a quiescent point"),
        }
        if state != crate::executor::DONE {
            not_done += 1;
        }
    }
    assert_eq!(
        shared.remaining(),
        not_done,
        "remaining-counter disagrees with task states"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::IngestQueue;
    use crate::test_tasks::{first_poll_order, FirstPoll, SumTask};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// A source feeding `items` one at a time into a task's inbox (notify
    /// after every push), then closing it — the close is the final step
    /// (returns Done). A full queue reports Blocked instead of blocking the
    /// single-threaded simulation.
    fn feeding_source(
        queue: Arc<IngestQueue<u64>>,
        task: usize,
        items: Vec<u64>,
    ) -> TrialSource<'static> {
        let mut next = 0usize;
        let step: Source<'static> = Box::new(move |notify| {
            if next < items.len() {
                if queue.len() == queue.capacity() {
                    return SourceStep::Blocked;
                }
                queue.push(items[next]).unwrap();
                next += 1;
                notify(task);
                SourceStep::Ran
            } else {
                queue.close();
                notify(task);
                SourceStep::Done
            }
        });
        TrialSource { target: task, step }
    }

    /// Live trial: every item arrives through a source at explored times.
    fn sum_trial(
        items_per_task: &'static [&'static [u64]],
        capacity: usize,
    ) -> Trial<'static, SumTask> {
        let queues: Vec<Arc<IngestQueue<u64>>> = items_per_task
            .iter()
            .map(|_| Arc::new(IngestQueue::bounded(capacity)))
            .collect();
        let tasks = queues.iter().map(|q| SumTask::new(Arc::clone(q))).collect();
        let sources = queues
            .iter()
            .zip(items_per_task.iter())
            .enumerate()
            .map(|(i, (q, items))| feeding_source(Arc::clone(q), i, items.to_vec()))
            .collect();
        Trial {
            tasks,
            sources,
            initial_notify: Vec::new(),
        }
    }

    /// Batch trial: inputs pre-filled and closed, and every task queued,
    /// before the first action — the schedule tree is purely the
    /// interleaving of (queued task, poll budget) choices.
    fn prefilled_trial(items_per_task: &'static [&'static [u64]]) -> Trial<'static, SumTask> {
        let tasks: Vec<SumTask> = items_per_task
            .iter()
            .map(|items| {
                let q = Arc::new(IngestQueue::bounded(items.len() + 1));
                for &v in items.iter() {
                    q.push(v).unwrap();
                }
                q.close();
                SumTask::new(q)
            })
            .collect();
        let initial_notify = (0..tasks.len()).collect();
        Trial {
            tasks,
            sources: Vec::new(),
            initial_notify,
        }
    }

    /// The acceptance-criteria config: 3 tasks, every interleaving of
    /// (queued task, poll budget) over pre-filled inputs. Every leaf must
    /// complete with the same per-task sums, and the tree must be free of
    /// deadlocks.
    #[test]
    fn exhaustive_three_tasks_full_tree() {
        // Under Miri the same tree shape is kept (3 tasks) but with one
        // item per task — interpreted execution pays ~two orders of
        // magnitude per poll, and the invariant checks are what Miri is
        // there to scrutinize, not the tree size.
        #[cfg(not(miri))]
        const ITEMS: [&[u64]; 3] = [&[1, 2], &[10, 20], &[100, 200]];
        #[cfg(miri)]
        const ITEMS: [&[u64]; 3] = [&[1], &[10], &[100]];
        let expected: Vec<u64> = ITEMS.iter().map(|it| it.iter().sum()).collect();
        let mut completions = 0u64;
        let report = explore(
            &ExploreConfig {
                max_budget: 2,
                ..ExploreConfig::default()
            },
            || prefilled_trial(&ITEMS),
            |outputs| {
                completions += 1;
                assert_eq!(outputs, expected.as_slice(), "decision divergence");
            },
        );
        assert_eq!(report.deadlocks, 0, "lost wakeup found: {report:?}");
        assert_eq!(report.leaves, completions);
        let full_tree_floor = if cfg!(miri) { 50 } else { 1_000 };
        assert!(
            report.leaves > full_tree_floor,
            "suspiciously small tree — exploration is not exhaustive: {report:?}"
        );
        println!(
            "exhaustive 3 tasks: {} leaves, {} polls, peak depth {}",
            report.leaves, report.polls, report.peak_depth
        );
    }

    /// Live sources with a tight queue (capacity 1): forces the
    /// Blocked/unblock machinery and the notify-while-running window on
    /// top of the poll interleavings.
    #[test]
    fn exhaustive_with_live_sources_and_full_queues() {
        const ITEMS: [&[u64]; 2] = [&[1], &[7]];
        let expected: Vec<u64> = ITEMS.iter().map(|it| it.iter().sum()).collect();
        let report = explore(
            &ExploreConfig {
                max_budget: 1,
                ..ExploreConfig::default()
            },
            || sum_trial(&ITEMS, 1),
            |outputs| assert_eq!(outputs, expected.as_slice()),
        );
        assert_eq!(report.deadlocks, 0, "lost wakeup found: {report:?}");
        assert!(report.leaves > 100, "{report:?}");
    }

    /// One task: no choice of queued task, but in-window notifies still
    /// exercise RUNNING→DIRTY — the regression pin for the lost-wakeup
    /// window (every interleaving, not a seed sample).
    #[test]
    fn exhaustive_single_task_dirty_window_regression() {
        const ITEMS: [&[u64]; 1] = [&[5, 6, 7]];
        let report = explore(
            &ExploreConfig {
                max_budget: 2,
                ..ExploreConfig::default()
            },
            || sum_trial(&ITEMS, 1),
            |outputs| assert_eq!(outputs, [18]),
        );
        assert_eq!(report.deadlocks, 0, "lost wakeup found: {report:?}");
        assert!(report.leaves > 10, "{report:?}");
    }

    /// Meta-test: with the RUNNING→DIRTY transition disabled (an executor
    /// whose lost-wakeup window is open), the explorer must find at least
    /// one deadlocking schedule — proof that the exploration actually
    /// covers the window the DIRTY state closes.
    #[test]
    fn explorer_catches_injected_lost_wakeup() {
        const ITEMS: [&[u64]; 1] = [&[5, 6, 7]];
        let report = explore(
            &ExploreConfig {
                max_budget: 2,
                simulate_lost_wakeup: true,
            },
            || sum_trial(&ITEMS, 1),
            |_| {},
        );
        assert!(
            report.deadlocks > 0,
            "the injected lost-wakeup bug went undetected: {report:?}"
        );
    }

    /// Choosing any queued position reaches every order in which three
    /// queued tasks can first be polled — all 3! of them.
    #[test]
    fn three_queued_tasks_reach_every_first_poll_order() {
        let mut orders = HashSet::new();
        let report = explore(
            &ExploreConfig::default(),
            || {
                let clock = Arc::new(AtomicUsize::new(0));
                Trial {
                    tasks: (0..3).map(|_| FirstPoll::new(&clock)).collect(),
                    sources: Vec::new(),
                    initial_notify: vec![0, 1, 2],
                }
            },
            |stamps| {
                orders.insert(first_poll_order(stamps));
            },
        );
        assert_eq!(report.deadlocks, 0, "lost wakeup found: {report:?}");
        assert_eq!(orders.len(), 6, "first-poll orders reached: {orders:?}");
    }

    /// The oracle enumerates a known tree shape exactly once per leaf.
    #[test]
    fn oracle_enumerates_every_path_once() {
        let mut oracle = Oracle::new();
        let mut seen = Vec::new();
        loop {
            // A two-level tree: 3 options, then 2 options (and a forced
            // move that must not be recorded).
            let a = oracle.choose(3);
            let forced = oracle.choose(1);
            assert_eq!(forced, 0);
            let b = oracle.choose(2);
            seen.push((a, b));
            if !oracle.advance() {
                break;
            }
        }
        let expected: Vec<(usize, usize)> =
            (0..3).flat_map(|a| (0..2).map(move |b| (a, b))).collect();
        assert_eq!(seen, expected);
    }
}
