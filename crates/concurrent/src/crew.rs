//! One crew of parked helper threads for the whole process.
//!
//! A caller with parallel work runs its own share on its own thread and
//! queues the rest as tasks; whichever crew thread is free takes the next
//! task. Nothing is spawned per block or per commit: the process-wide crew
//! ([`Crew::global`]) starts `cores − 1` helpers (at least one) the first
//! time it is used, and only ever grows, to `parallelism − 1` helpers when a
//! caller asks for more ([`Crew::reserve`]). This is Block-STM's
//! collaborative scheduler (PAPERS.md) in its simplest form: a fixed set of
//! threads that take whichever task is next.
//!
//! Work arrives two ways:
//!
//! * a **scope** ([`Crew::scope`]) — tasks that borrow from the caller's
//!   stack, as with `std::thread::scope`. The caller runs the scope's body,
//!   then whatever of its own tasks no helper took, then waits for the ones
//!   that were taken. A task's panic is raised again on the caller once
//!   every sibling is done.
//! * a **detached** task ([`Crew::spawn_all`]) — owned work someone waits
//!   for elsewhere; a thread blocked in [`Crew::help_until`] runs queued
//!   tasks until its own condition holds. A detached task's panic ends the
//!   task, not the thread that ran it.
//!
//! Free threads take tasks lane by lane: [`Priority::Urgent`] scopes (a
//! state root's shards), then detached tasks (the validator's jobs and
//! applies), then [`Priority::Bulk`] scopes (the proposer's pack workers).
//!
//! Two rules keep every wait finite:
//!
//! 1. **A task blocks only on work that is already running** — on a thread
//!    that is inside a task or a scope, never on a task still in the queue.
//! 2. **A scope's caller helps only with its own scope's tasks.** A caller
//!    blocked in its scope may hold something another task waits for (a
//!    validator's root hashing, which the next block's apply waits on); the
//!    tasks it runs while it waits are pieces of that same work, never a
//!    task that could wait on it.
//!
//! A thread in [`Crew::help_until`] takes any task, so it must not be inside
//! a task itself. Whatever runs a task makes its crew the thread's
//! [`current`] one, so a scope opened inside a task stays on the task's crew.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use crate::sync::{Condvar, Mutex};

/// Where a scope's tasks queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Short pieces of work a caller is blocked on: taken before anything
    /// else.
    Urgent,
    /// Long-running workers: taken after every detached task.
    Bulk,
}

/// Queue lanes, taken in this order.
const URGENT: usize = 0;
const DETACHED: usize = 1;
const BULK: usize = 2;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Task {
    /// The scope the task belongs to; 0 for a detached task.
    scope: usize,
    job: Job,
}

#[derive(Default)]
struct Queue {
    lanes: [VecDeque<Task>; 3],
    /// Helpers parked on `work`.
    idle_helpers: usize,
    /// Threads parked on `waiting` in `help_until`.
    idle_waiters: usize,
    /// Helpers started.
    helpers: usize,
    /// Every [`Crew`] handle is gone: helpers leave once the queue is empty.
    closed: bool,
}

impl Queue {
    fn pop(&mut self) -> Option<Task> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }

    /// The newest queued task of `scope`, which queues in `lane`.
    fn pop_own(&mut self, lane: usize, scope: usize) -> Option<Task> {
        let lane = &mut self.lanes[lane];
        let at = lane.iter().rposition(|task| task.scope == scope)?;
        lane.remove(at)
    }
}

/// What the helpers share with the handles.
struct Shared {
    queue: Mutex<Queue>,
    /// Helpers park here.
    work: Condvar,
    /// Threads in `help_until` park here.
    waiting: Condvar,
    /// Helpers the crew may still start; only the global crew grows.
    grows: bool,
    /// Scope ids, from 1.
    scopes: AtomicUsize,
}

/// The owner of a crew's helpers: dropping the last [`Crew`] handle closes
/// the crew, and its helpers leave once the queue is empty.
struct Owner {
    shared: Arc<Shared>,
}

impl Drop for Owner {
    fn drop(&mut self) {
        self.shared.queue.lock().closed = true;
        self.shared.work.notify_all();
    }
}

/// A handle on a crew of parked helper threads. Cloning shares the crew.
#[derive(Clone)]
pub struct Crew(Arc<Owner>);

thread_local! {
    /// The crew whose task or scope this thread is running, if any.
    static CURRENT: RefCell<Option<Crew>> = const { RefCell::new(None) };
}

/// The crew of the task or scope this thread is running, else the global
/// one.
pub fn current() -> Crew {
    CURRENT
        .with(|current| current.borrow().clone())
        .unwrap_or_else(|| Crew::global().clone())
}

impl Crew {
    /// The process-wide crew: `cores − 1` helpers to start with, at least
    /// one, grown by [`Crew::reserve`].
    pub fn global() -> &'static Crew {
        static GLOBAL: OnceLock<Crew> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let crew = Crew::build(true);
            crew.start_helpers(cores.max(2) - 1);
            crew
        })
    }

    /// A crew of its own with exactly `helpers` helper threads (zero
    /// included: every scope then completes on its caller, every detached
    /// task on a thread in [`Crew::help_until`]). It does not grow.
    pub fn new(helpers: usize) -> Crew {
        let crew = Crew::build(false);
        crew.start_helpers(helpers);
        crew
    }

    fn build(grows: bool) -> Crew {
        Crew(Arc::new(Owner {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue::default()),
                work: Condvar::new(),
                waiting: Condvar::new(),
                grows,
                scopes: AtomicUsize::new(1),
            }),
        }))
    }

    fn shared(&self) -> &Shared {
        &self.0.shared
    }

    /// Helper threads started.
    pub fn helpers(&self) -> usize {
        self.shared().queue.lock().helpers
    }

    /// Helpers parked with nothing to run, at this instant: the threads a
    /// caller that splits its work now can expect to join it.
    pub fn idle_helpers(&self) -> usize {
        self.shared().queue.lock().idle_helpers
    }

    /// Whether tasks that go before a [`Priority::Bulk`] scope's are queued:
    /// a bulk task that can stop early, leaving its work to the scope's
    /// caller, should, so that a helper serves them first.
    pub fn bulk_should_yield(&self) -> bool {
        let queue = self.shared().queue.lock();
        !queue.lanes[URGENT].is_empty() || !queue.lanes[DETACHED].is_empty()
    }

    /// Makes room for `parallelism` threads at once — the caller and
    /// `parallelism − 1` helpers — on a crew that grows (the global one);
    /// a crew of fixed size stays as it is.
    pub fn reserve(&self, parallelism: usize) {
        if self.shared().grows {
            self.start_helpers(parallelism.saturating_sub(1));
        }
    }

    /// Starts helpers until there are `target`.
    fn start_helpers(&self, target: usize) {
        let mut queue = self.shared().queue.lock();
        while queue.helpers < target {
            queue.helpers += 1;
            let shared = Arc::clone(&self.0.shared);
            let owner = Arc::downgrade(&self.0);
            std::thread::Builder::new()
                .name("crew".into())
                .spawn(move || helper(&shared, &owner))
                .expect("a crew helper starts");
        }
    }

    /// Runs `f` on this thread with this crew as its [`current`] one.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let previous = CURRENT.with(|current| current.replace(Some(self.clone())));
        let _restore = Restore(previous);
        f()
    }

    /// Queues detached tasks and wakes as many free threads as there are
    /// tasks.
    pub fn spawn_all(&self, tasks: impl IntoIterator<Item = impl FnOnce() + Send + 'static>) {
        let mut queue = self.shared().queue.lock();
        let before = queue.lanes[DETACHED].len();
        queue.lanes[DETACHED].extend(tasks.into_iter().map(|job| Task {
            scope: 0,
            job: Box::new(job),
        }));
        let added = queue.lanes[DETACHED].len() - before;
        self.wake(&queue, added);
    }

    /// Wakes up to `tasks` parked helpers; the waiters too when there are
    /// more tasks than parked helpers.
    fn wake(&self, queue: &Queue, tasks: usize) {
        for _ in 0..tasks.min(queue.idle_helpers) {
            self.shared().work.notify_one();
        }
        if tasks > queue.idle_helpers && queue.idle_waiters > 0 {
            self.shared().waiting.notify_all();
        }
    }

    /// Runs queued tasks, any of them, until `done` holds; parks while
    /// there is nothing to run. `done` is read under the crew's lock, so
    /// whatever makes it true must then call [`Crew::notify_waiters`].
    /// Not to be called from inside a task (rule 1 of the module docs).
    pub fn help_until(&self, done: impl Fn() -> bool) {
        let shared = self.shared();
        let mut queue = shared.queue.lock();
        loop {
            if done() {
                return;
            }
            if let Some(task) = queue.pop() {
                drop(queue);
                self.run(task);
                queue = shared.queue.lock();
                continue;
            }
            queue.idle_waiters += 1;
            shared.waiting.wait(&mut queue);
            queue.idle_waiters -= 1;
        }
    }

    /// Wakes every thread parked in [`Crew::help_until`] to look at its
    /// condition again.
    pub fn notify_waiters(&self) {
        let queue = self.shared().queue.lock();
        if queue.idle_waiters > 0 {
            self.shared().waiting.notify_all();
        }
    }

    /// Runs one task with this crew current. A scoped task's job catches
    /// its own panic for the scope's caller; a detached task's panic ends
    /// here, after the panic hook reported it.
    fn run(&self, task: Task) {
        self.install(|| {
            let _ = catch_unwind(AssertUnwindSafe(task.job));
        });
    }

    /// Opens a scope: runs `f` on this thread, lets it queue tasks that
    /// borrow from the caller's stack ([`Scope::spawn`]), and returns once
    /// every one of them has run — the ones no helper took, on this thread.
    /// A panic of `f` or of any task is raised again here, after all of them
    /// are done. `f` runs with this crew [`current`].
    ///
    /// A task may borrow what outlives the scope, not a local of `f`: `f`
    /// returns before the tasks no helper took run, so this does not
    /// compile.
    ///
    /// ```compile_fail,E0373
    /// use bp_concurrent::crew::{Crew, Priority};
    ///
    /// Crew::new(0).scope(Priority::Urgent, |s| {
    ///     let mut local = 0;
    ///     s.spawn(|| local += 1);
    /// });
    /// ```
    pub fn scope<'env, R>(
        &self,
        priority: Priority,
        f: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    ) -> R {
        let scope = Scope {
            crew: self,
            id: self.shared().scopes.fetch_add(1, Ordering::Relaxed),
            lane: match priority {
                Priority::Urgent => URGENT,
                Priority::Bulk => BULK,
            },
            state: Arc::new(ScopeState {
                left: Mutex::new((0, None)),
                done: Condvar::new(),
            }),
            scope: PhantomData,
            env: PhantomData,
        };
        let result = self.install(|| catch_unwind(AssertUnwindSafe(|| f(&scope))));
        scope.finish();
        let panic = scope.state.left.lock().1.take();
        match (result, panic) {
            (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
            (Ok(value), None) => value,
        }
    }
}

/// Puts back the thread's previous current crew.
struct Restore(Option<Crew>);

impl Drop for Restore {
    fn drop(&mut self) {
        let previous = self.0.take();
        CURRENT.with(|current| *current.borrow_mut() = previous);
    }
}

/// A helper: runs queued tasks, parks while there are none, leaves when the
/// crew is closed and its queue empty.
fn helper(shared: &Shared, owner: &Weak<Owner>) {
    let mut queue = shared.queue.lock();
    loop {
        if let Some(task) = queue.pop() {
            drop(queue);
            // The crew is closed once nothing can upgrade: the task still
            // runs, on the global crew if it opens a scope.
            match owner.upgrade() {
                Some(owner) => Crew(owner).run(task),
                None => {
                    let _ = catch_unwind(AssertUnwindSafe(task.job));
                }
            }
            queue = shared.queue.lock();
            continue;
        }
        if queue.closed {
            queue.helpers -= 1;
            return;
        }
        queue.idle_helpers += 1;
        shared.work.wait(&mut queue);
        queue.idle_helpers -= 1;
    }
}

/// What a scope's caller waits on: tasks not yet done, and the first panic.
struct ScopeState {
    left: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    done: Condvar,
}

/// Tasks borrowing from a caller's stack; see [`Crew::scope`].
pub struct Scope<'scope, 'env: 'scope> {
    crew: &'scope Crew,
    id: usize,
    lane: usize,
    state: Arc<ScopeState>,
    /// Invariant in `'scope`, as `std::thread::Scope` is: a `&'scope Scope`
    /// cannot shrink to the body's own lifetime, so a task cannot borrow a
    /// local of the body, which is gone when the task runs.
    scope: PhantomData<&'scope mut &'scope ()>,
    /// Invariant in `'env`.
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Queues `f` as one of this scope's tasks.
    #[allow(unsafe_code)]
    pub fn spawn(&self, f: impl FnOnce() + Send + 'scope) {
        self.state.left.lock().0 += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            // Everything `f` borrowed is released before the caller may see
            // the count drop and return.
            let mut left = state.left.lock();
            if let Err(payload) = outcome {
                left.1.get_or_insert(payload);
            }
            left.0 -= 1;
            if left.0 == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: the job has run before `Crew::scope` returns, on the
        // caller or on a helper: the caller runs every task of its scope that
        // no helper took, then waits until the count of unfinished ones is
        // zero, and a job decrements that count only after `f` and everything
        // it captured are gone. So nothing borrowed for `'scope` is used after
        // it ends. And `'scope` outlives the scope's body: `Scope` is
        // invariant in it, so `f` cannot borrow the body's locals — the
        // `compile_fail` doctest on `Crew::scope` pins that, and
        // `a_crew_with_no_helpers_completes_every_scope_on_its_caller` runs
        // tasks after their body returned.
        let job: Job = unsafe { std::mem::transmute::<_, Job>(job) };
        let shared = self.crew.shared();
        let mut queue = shared.queue.lock();
        queue.lanes[self.lane].push_back(Task {
            scope: self.id,
            job,
        });
        self.crew.wake(&queue, 1);
    }

    /// Runs this scope's tasks that no helper took, then waits for the rest.
    fn finish(&self) {
        let shared = self.crew.shared();
        loop {
            let task = shared.queue.lock().pop_own(self.lane, self.id);
            match task {
                Some(task) => self.crew.run(task),
                None => break,
            }
        }
        let mut left = self.state.left.lock();
        while left.0 > 0 {
            self.state.done.wait(&mut left);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_testkit::within;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn a_crew_with_no_helpers_completes_every_scope_on_its_caller() {
        within(|| {
            let crew = Crew::new(0);
            assert_eq!(crew.helpers(), 0);
            let caller = std::thread::current().id();
            for priority in [Priority::Urgent, Priority::Bulk] {
                let mut ran: Vec<Option<ThreadId>> = vec![None; 8];
                let total = crew.scope(priority, |s| {
                    for slot in &mut ran {
                        s.spawn(move || *slot = Some(std::thread::current().id()));
                    }
                    // A nested scope on the caller's current crew, whose
                    // task counts into a counter owned outside it.
                    let inner = AtomicUsize::new(0);
                    let seen = current().scope(priority, |s| {
                        s.spawn(|| {
                            inner.fetch_add(1, Ordering::Relaxed);
                        });
                        inner.load(Ordering::Relaxed)
                    });
                    (seen, inner.into_inner())
                });
                assert_eq!(total, (0, 1), "the body returns before its tasks ran");
                assert!(ran.iter().all(|t| *t == Some(caller)), "{ran:?}");
            }
        });
    }

    #[test]
    fn a_scope_at_full_width_runs_every_task_at_once() {
        // Sixteen tasks that each wait for all sixteen: only a crew that
        // runs them together gets past the barrier. The caller takes one
        // share, fifteen helpers the others.
        within(|| {
            let crew = Crew::new(15);
            let barrier = Barrier::new(16);
            let mut threads: Vec<Option<ThreadId>> = vec![None; 16];
            crew.scope(Priority::Bulk, |s| {
                let (first, rest) = threads.split_first_mut().unwrap();
                for slot in rest {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        *slot = Some(std::thread::current().id());
                    });
                }
                barrier.wait();
                *first = Some(std::thread::current().id());
            });
            let distinct: std::collections::HashSet<_> = threads.iter().flatten().collect();
            assert_eq!(distinct.len(), 16);
        });
    }

    #[test]
    fn a_panicking_task_is_raised_on_its_caller_after_its_siblings_finish() {
        within(|| {
            let crew = Crew::new(1);
            let finished = AtomicUsize::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                crew.scope(Priority::Urgent, |s| {
                    s.spawn(|| panic!("task fails"));
                    for _ in 0..4 {
                        s.spawn(|| {
                            std::thread::sleep(Duration::from_millis(5));
                            finished.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                })
            }));
            let payload = outcome.expect_err("the task's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task fails"));
            assert_eq!(finished.load(Ordering::SeqCst), 4, "siblings ran first");
        });
    }

    #[test]
    fn a_helper_survives_a_panicking_task() {
        within(|| {
            let crew = Crew::new(1);
            let helper_ran = |crew: &Crew| {
                // The caller is stuck in its own share until a helper runs
                // the queued task, so the task can only run on the helper.
                let (tx, rx) = std::sync::mpsc::channel();
                crew.scope(Priority::Urgent, |s| {
                    s.spawn(move || tx.send(std::thread::current().id()).unwrap());
                    rx.recv_timeout(Duration::from_secs(30)).ok()
                })
            };
            let before = helper_ran(&crew).expect("the helper runs a task");
            // A detached task panics on the helper, then a scoped one does.
            crew.spawn_all([|| panic!("detached task fails")]);
            let scoped = catch_unwind(AssertUnwindSafe(|| {
                crew.scope(Priority::Urgent, |s| {
                    s.spawn(|| panic!("scoped task fails"));
                })
            }));
            assert!(scoped.is_err());
            assert_eq!(crew.helpers(), 1);
            assert_eq!(helper_ran(&crew), Some(before), "the same helper");
        });
    }

    #[test]
    fn a_scope_inside_a_detached_task_run_by_a_waiter_completes_at_one_thread() {
        // The validator's shape on a crew without helpers: a block's apply
        // is a detached task, its state root a scope inside it, and the only
        // thread is the one waiting for the verdict.
        within(|| {
            let crew = Crew::new(0);
            let verdict = Arc::new(Mutex::new(None));
            let shards = Arc::new(AtomicUsize::new(0));
            {
                let (verdict, shards, crew_for_task) =
                    (Arc::clone(&verdict), Arc::clone(&shards), crew.clone());
                crew.spawn_all([move || {
                    let sum = current().scope(Priority::Urgent, |s| {
                        for _ in 0..4 {
                            s.spawn(|| {
                                shards.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                        7
                    });
                    *verdict.lock() = Some((sum, std::thread::current().id()));
                    crew_for_task.notify_waiters();
                }]);
            }
            crew.help_until(|| verdict.lock().is_some());
            let (sum, thread) = verdict.lock().take().unwrap();
            assert_eq!(sum, 7);
            assert_eq!(thread, std::thread::current().id());
            assert_eq!(shards.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn a_scope_caller_runs_only_its_own_scope() {
        // A detached task queued before the scope opens is the helpers' and
        // the waiters' to run, never the caller's, however long the caller
        // waits for its own scope.
        within(|| {
            let crew = Crew::new(0);
            let detached_ran = Arc::new(AtomicBool::new(false));
            {
                let flag = Arc::clone(&detached_ran);
                crew.spawn_all([move || flag.store(true, Ordering::SeqCst)]);
            }
            crew.scope(Priority::Urgent, |s| {
                s.spawn(|| {});
            });
            assert!(!detached_ran.load(Ordering::SeqCst));
            crew.help_until(|| detached_ran.load(Ordering::SeqCst));
        });
    }

    #[test]
    fn the_global_crew_grows_to_the_widest_request() {
        let crew = Crew::global();
        assert!(crew.helpers() >= 1);
        crew.reserve(3);
        assert!(crew.helpers() >= 2);
        // A crew of fixed size does not.
        let fixed = Crew::new(0);
        fixed.reserve(4);
        assert_eq!(fixed.helpers(), 0);
    }

    #[test]
    fn a_dropped_crew_lets_its_helpers_go() {
        within(|| {
            let crew = Crew::new(2);
            let shared = Arc::clone(&crew.0.shared);
            drop(crew);
            let deadline = Instant::now() + Duration::from_secs(30);
            while shared.queue.lock().helpers > 0 {
                assert!(Instant::now() < deadline, "helpers still parked");
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    }

    #[test]
    fn stress_nested_scopes_and_detached_tasks_on_small_crews() {
        // Detached "blocks", each opening a scope of "shards", each block
        // waiting on the one before it, which is already running by the
        // time the next is queued (rule 1); threads in `help_until` wait
        // for the last block. On zero, one and three helpers.
        use bp_types::Rng;
        within(|| {
            for helpers in [0, 1, 3] {
                let crew = Crew::new(helpers);
                let mut rng = Rng::seed_from_u64(0x00c0_ffee + helpers as u64);
                for round in 0..200 {
                    let blocks = rng.gen_range(1..8usize);
                    let done: Arc<Vec<Mutex<Option<usize>>>> =
                        Arc::new((0..blocks).map(|_| Mutex::new(None)).collect());
                    let started: Arc<Vec<AtomicBool>> =
                        Arc::new((0..blocks).map(|_| AtomicBool::new(false)).collect());
                    for b in 0..blocks {
                        let (done, started, crew_in) =
                            (Arc::clone(&done), Arc::clone(&started), crew.clone());
                        let shards = rng.gen_range(0..6usize);
                        crew.spawn_all([move || {
                            started[b].store(true, Ordering::SeqCst);
                            let mut parts = vec![0usize; shards];
                            current().scope(Priority::Urgent, |s| {
                                for (i, part) in parts.iter_mut().enumerate() {
                                    s.spawn(move || *part = i + 1);
                                }
                            });
                            let sum: usize = parts.iter().sum();
                            // Wait on the parent only once it is running.
                            if b > 0 && started[b - 1].load(Ordering::SeqCst) {
                                while done[b - 1].lock().is_none() {
                                    std::thread::yield_now();
                                }
                            }
                            *done[b].lock() = Some(sum);
                            crew_in.notify_waiters();
                        }]);
                    }
                    crew.help_until(|| done.iter().all(|d| d.lock().is_some()));
                    for d in done.iter() {
                        let sum = d.lock().unwrap();
                        assert!(sum <= 15, "helpers {helpers}, round {round}");
                    }
                }
            }
        });
    }
}
