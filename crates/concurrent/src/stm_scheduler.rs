//! The Block-STM collaborative scheduler.
//!
//! Workers pull tasks from two logical queues — *execution* and
//! *validation* — realized as two atomic counters over the preset
//! transaction order. Each counter only ever moves forward via `fetch_add`
//! (claiming the next index) or backward via `fetch_min` (an abort or a
//! resumed dependency re-opens a prefix); the pair acts as the engine's
//! **decrease-only commit watermark**: every transaction below
//! `min(execution_idx, validation_idx)` that is `Executed` and has no
//! pending re-validation is final.
//!
//! Termination detection is the paper's stability check: the run is done
//! when both counters have passed the end, no claimed task is in flight,
//! and `decrease_cnt` — bumped on every backward move — did not change
//! while we looked.
//!
//! Suspension: when an execution reads an ESTIMATE marker it registers a
//! dependency on the writer ([`StmScheduler::add_dependency`]) instead of
//! spinning; the writer's next [`StmScheduler::finish_execution`] resumes
//! every suspended dependent (same incarnation) and re-opens the execution
//! watermark down to the lowest of them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::sync::Mutex;

/// A unit of work handed to a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StmTask {
    /// Execute incarnation `incarnation` of transaction `tx`.
    Execute {
        /// Preset index.
        tx: usize,
        /// Incarnation to run.
        incarnation: u32,
    },
    /// Validate the read set of incarnation `incarnation` of `tx`.
    Validate {
        /// Preset index.
        tx: usize,
        /// Incarnation whose reads are checked.
        incarnation: u32,
    },
    /// Every transaction is executed and validated: workers exit.
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    ReadyToExecute,
    Executing,
    Suspended,
    Executed,
    Aborting,
}

struct TxState {
    incarnation: u32,
    status: Status,
    /// Transactions suspended on this one (resumed at finish_execution).
    deps: Vec<usize>,
}

/// The scheduler for one Block-STM block run over `n` preset transactions.
pub struct StmScheduler {
    n: usize,
    execution_idx: AtomicUsize,
    validation_idx: AtomicUsize,
    /// Bumped on every backward (`fetch_min`) move of either index; the
    /// stability witness for termination detection.
    decrease_cnt: AtomicUsize,
    /// Tasks currently claimed by some worker.
    num_active: AtomicUsize,
    done: AtomicBool,
    txs: Vec<Mutex<TxState>>,
}

impl StmScheduler {
    /// A scheduler over `n` transactions (all initially ready to execute).
    pub fn new(n: usize) -> Self {
        StmScheduler {
            n,
            execution_idx: AtomicUsize::new(0),
            validation_idx: AtomicUsize::new(0),
            decrease_cnt: AtomicUsize::new(0),
            num_active: AtomicUsize::new(0),
            done: AtomicBool::new(n == 0),
            txs: (0..n)
                .map(|_| {
                    Mutex::new(TxState {
                        incarnation: 0,
                        status: Status::ReadyToExecute,
                        deps: Vec::new(),
                    })
                })
                .collect(),
        }
    }

    /// True once every transaction is executed and validated.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    fn decrease_execution_idx(&self, to: usize) {
        self.execution_idx.fetch_min(to, Ordering::SeqCst);
        self.decrease_cnt.fetch_add(1, Ordering::SeqCst);
    }

    fn decrease_validation_idx(&self, to: usize) {
        self.validation_idx.fetch_min(to, Ordering::SeqCst);
        self.decrease_cnt.fetch_add(1, Ordering::SeqCst);
    }

    fn check_done(&self) {
        let observed = self.decrease_cnt.load(Ordering::SeqCst);
        let e = self.execution_idx.load(Ordering::SeqCst);
        let v = self.validation_idx.load(Ordering::SeqCst);
        if e.min(v) >= self.n
            && self.num_active.load(Ordering::SeqCst) == 0
            && self.decrease_cnt.load(Ordering::SeqCst) == observed
        {
            self.done.store(true, Ordering::Release);
        }
    }

    fn next_version_to_execute(&self) -> Option<StmTask> {
        if self.execution_idx.load(Ordering::SeqCst) >= self.n {
            self.check_done();
            return None;
        }
        self.num_active.fetch_add(1, Ordering::SeqCst);
        let idx = self.execution_idx.fetch_add(1, Ordering::SeqCst);
        if idx < self.n {
            let mut st = self.txs[idx].lock();
            if st.status == Status::ReadyToExecute {
                st.status = Status::Executing;
                return Some(StmTask::Execute {
                    tx: idx,
                    incarnation: st.incarnation,
                });
            }
        }
        self.num_active.fetch_sub(1, Ordering::SeqCst);
        None
    }

    fn next_version_to_validate(&self) -> Option<StmTask> {
        if self.validation_idx.load(Ordering::SeqCst) >= self.n {
            self.check_done();
            return None;
        }
        self.num_active.fetch_add(1, Ordering::SeqCst);
        let idx = self.validation_idx.fetch_add(1, Ordering::SeqCst);
        if idx < self.n {
            let st = self.txs[idx].lock();
            if st.status == Status::Executed {
                return Some(StmTask::Validate {
                    tx: idx,
                    incarnation: st.incarnation,
                });
            }
        }
        self.num_active.fetch_sub(1, Ordering::SeqCst);
        None
    }

    /// The next task for an idle worker. Spins (yielding) while both queues
    /// are drained but other workers still hold tasks that may re-open them;
    /// returns [`StmTask::Done`] once the run converged.
    pub fn next_task(&self) -> StmTask {
        loop {
            if self.done.load(Ordering::Acquire) {
                return StmTask::Done;
            }
            let task = if self.validation_idx.load(Ordering::SeqCst)
                < self.execution_idx.load(Ordering::SeqCst)
            {
                self.next_version_to_validate()
            } else {
                self.next_version_to_execute()
            };
            match task {
                Some(t) => return t,
                None => std::thread::yield_now(),
            }
        }
    }

    /// Suspends `tx` (currently `Executing`) until `blocking` finishes its
    /// next execution. Returns `false` — and suspends nothing — if
    /// `blocking` already finished (the caller should simply re-execute).
    /// On success the claimed execution task is released.
    pub fn add_dependency(&self, tx: usize, blocking: usize) -> bool {
        debug_assert!(blocking < tx, "dependencies point down the preset order");
        // Lock order: lower index first (finish_execution locks tx then its
        // higher-index dependents, so this cannot deadlock).
        let mut b = self.txs[blocking].lock();
        if b.status == Status::Executed {
            return false;
        }
        {
            let mut t = self.txs[tx].lock();
            debug_assert_eq!(t.status, Status::Executing);
            t.status = Status::Suspended;
        }
        b.deps.push(tx);
        drop(b);
        self.num_active.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// Marks incarnation `incarnation` of `tx` executed, resumes everything
    /// suspended on it, and schedules re-validation. With
    /// `revalidate_suffix` the validation watermark drops to `tx` (required
    /// when the write set grew a new location, and — beyond the original
    /// algorithm — whenever `incarnation > 0`, because this engine
    /// soft-passes validations that land on an ESTIMATE and must therefore
    /// force a fresh pass over the suffix once the re-execution lands).
    /// Otherwise the worker gets the single validation task back.
    pub fn finish_execution(
        &self,
        tx: usize,
        incarnation: u32,
        revalidate_suffix: bool,
    ) -> Option<StmTask> {
        let deps = {
            let mut st = self.txs[tx].lock();
            debug_assert_eq!(st.status, Status::Executing);
            debug_assert_eq!(st.incarnation, incarnation);
            st.status = Status::Executed;
            std::mem::take(&mut st.deps)
        };
        if let Some(&min_dep) = deps.iter().min() {
            for &d in &deps {
                let mut ds = self.txs[d].lock();
                debug_assert_eq!(ds.status, Status::Suspended);
                ds.status = Status::ReadyToExecute;
            }
            self.decrease_execution_idx(min_dep);
        }
        if self.validation_idx.load(Ordering::SeqCst) > tx {
            if revalidate_suffix {
                self.decrease_validation_idx(tx);
            } else {
                return Some(StmTask::Validate { tx, incarnation });
            }
        }
        self.num_active.fetch_sub(1, Ordering::SeqCst);
        None
    }

    /// Claims the right to abort incarnation `incarnation` of `tx`. Exactly
    /// one concurrent validator of the same incarnation wins; the winner
    /// must flag the write set as ESTIMATEs and then call
    /// [`StmScheduler::finish_validation`] with `aborted = true`.
    pub fn try_validation_abort(&self, tx: usize, incarnation: u32) -> bool {
        let mut st = self.txs[tx].lock();
        if st.incarnation == incarnation && st.status == Status::Executed {
            st.status = Status::Aborting;
            true
        } else {
            false
        }
    }

    /// Completes a validation task. On an abort the transaction becomes
    /// ready at the next incarnation, the validation watermark drops below
    /// every higher transaction, and — when the execution watermark already
    /// passed it — the worker immediately gets the re-execution task back.
    pub fn finish_validation(&self, tx: usize, aborted: bool) -> Option<StmTask> {
        if aborted {
            {
                let mut st = self.txs[tx].lock();
                debug_assert_eq!(st.status, Status::Aborting);
                st.incarnation += 1;
                st.status = Status::ReadyToExecute;
            }
            self.decrease_validation_idx(tx + 1);
            if self.execution_idx.load(Ordering::SeqCst) > tx {
                let mut st = self.txs[tx].lock();
                if st.status == Status::ReadyToExecute {
                    st.status = Status::Executing;
                    return Some(StmTask::Execute {
                        tx,
                        incarnation: st.incarnation,
                    });
                }
            }
        }
        self.num_active.fetch_sub(1, Ordering::SeqCst);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_run_is_immediately_done() {
        let s = StmScheduler::new(0);
        assert!(s.is_done());
        assert_eq!(s.next_task(), StmTask::Done);
    }

    #[test]
    fn serial_happy_path_executes_then_validates() {
        let s = StmScheduler::new(2);
        // The validation watermark trails the execution watermark, so a
        // single worker alternates execute → validate down the preset order.
        assert_eq!(
            s.next_task(),
            StmTask::Execute {
                tx: 0,
                incarnation: 0
            }
        );
        // validation_idx (0) is not past tx 0 yet: no task handed back, the
        // validation queue itself covers it.
        assert!(s.finish_execution(0, 0, false).is_none());
        assert_eq!(
            s.next_task(),
            StmTask::Validate {
                tx: 0,
                incarnation: 0
            }
        );
        assert!(s.finish_validation(0, false).is_none());
        assert_eq!(
            s.next_task(),
            StmTask::Execute {
                tx: 1,
                incarnation: 0
            }
        );
        assert!(s.finish_execution(1, 0, false).is_none());
        assert_eq!(
            s.next_task(),
            StmTask::Validate {
                tx: 1,
                incarnation: 0
            }
        );
        assert!(s.finish_validation(1, false).is_none());
        assert_eq!(s.next_task(), StmTask::Done);
    }

    #[test]
    fn finish_execution_hands_back_validation_when_watermark_passed() {
        let s = StmScheduler::new(2);
        let _e0 = s.next_task();
        // The second claim first tries (and wastes) validation slot 0 — tx 0
        // is still executing — bumping the validation watermark past tx 0.
        let _e1 = s.next_task();
        // So when tx 0 finishes, the watermark (1 > 0) already passed it and
        // the finishing worker gets tx 0's validation task back directly.
        let v0 = s.finish_execution(0, 0, false).unwrap();
        assert_eq!(
            v0,
            StmTask::Validate {
                tx: 0,
                incarnation: 0
            }
        );
        assert!(s.finish_validation(0, false).is_none());
        // tx 1: the watermark (1) has not passed it, so no handback; the
        // validation queue covers it.
        assert!(s.finish_execution(1, 0, false).is_none());
        assert_eq!(
            s.next_task(),
            StmTask::Validate {
                tx: 1,
                incarnation: 0
            }
        );
        assert!(s.finish_validation(1, false).is_none());
        assert_eq!(s.next_task(), StmTask::Done);
    }

    #[test]
    fn abort_bumps_incarnation_and_reopens_validation() {
        let s = StmScheduler::new(2);
        assert_eq!(
            s.next_task(),
            StmTask::Execute {
                tx: 0,
                incarnation: 0
            }
        );
        assert_eq!(
            s.next_task(),
            StmTask::Execute {
                tx: 1,
                incarnation: 0
            }
        );
        assert!(s.finish_execution(0, 0, true).is_none());
        assert!(s.finish_execution(1, 0, true).is_none());
        // Validate 0 fine, abort 1.
        let v0 = s.next_task();
        assert_eq!(
            v0,
            StmTask::Validate {
                tx: 0,
                incarnation: 0
            }
        );
        assert!(s.finish_validation(0, false).is_none());
        let v1 = s.next_task();
        assert_eq!(
            v1,
            StmTask::Validate {
                tx: 1,
                incarnation: 0
            }
        );
        assert!(s.try_validation_abort(1, 0));
        // Double-abort of the same incarnation is rejected.
        assert!(!s.try_validation_abort(1, 0));
        let re = s.finish_validation(1, true).unwrap();
        assert_eq!(
            re,
            StmTask::Execute {
                tx: 1,
                incarnation: 1
            }
        );
        let v1b = s.finish_execution(1, 1, false).unwrap();
        assert_eq!(
            v1b,
            StmTask::Validate {
                tx: 1,
                incarnation: 1
            }
        );
        assert!(s.finish_validation(1, false).is_none());
        assert_eq!(s.next_task(), StmTask::Done);
    }

    #[test]
    fn suspended_tasks_resume_after_the_blocker_executes() {
        let s = StmScheduler::new(2);
        let _e0 = s.next_task();
        let _e1 = s.next_task();
        // tx 1 read an ESTIMATE of tx 0: suspend.
        assert!(s.add_dependency(1, 0));
        // tx 0 finishes: tx 1 must become executable again. The validation
        // watermark trails, so tx 0's validation is handed out first, then
        // the resumed execution of tx 1.
        assert!(s.finish_execution(0, 0, true).is_none());
        assert_eq!(
            s.next_task(),
            StmTask::Validate {
                tx: 0,
                incarnation: 0
            }
        );
        assert!(s.finish_validation(0, false).is_none());
        let t = s.next_task();
        assert_eq!(
            t,
            StmTask::Execute {
                tx: 1,
                incarnation: 0
            }
        );
        assert!(s.finish_execution(1, 0, true).is_none());
        // Drain the two validations.
        loop {
            match s.next_task() {
                StmTask::Validate { tx, .. } => {
                    s.finish_validation(tx, false);
                }
                StmTask::Done => break,
                t => panic!("unexpected {t:?}"),
            }
        }
    }

    #[test]
    fn add_dependency_fails_once_blocker_executed() {
        let s = StmScheduler::new(2);
        let _e0 = s.next_task();
        let _e1 = s.next_task();
        assert!(s.finish_execution(0, 0, true).is_none());
        // Too late to suspend: the caller must just re-execute.
        assert!(!s.add_dependency(1, 0));
        assert!(s.finish_execution(1, 0, true).is_none());
        loop {
            match s.next_task() {
                StmTask::Validate { tx, .. } => {
                    s.finish_validation(tx, false);
                }
                StmTask::Done => break,
                t => panic!("unexpected {t:?}"),
            }
        }
    }

    #[test]
    fn concurrent_workers_converge() {
        // A synthetic torture run: every validation of incarnation 0 aborts,
        // so each transaction executes at least twice; the scheduler must
        // still converge and hand out exactly one final validation per tx.
        let n = 64;
        let s = Arc::new(StmScheduler::new(n));
        let validated = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = Arc::clone(&s);
                let validated = Arc::clone(&validated);
                scope.spawn(move || {
                    let mut task = None;
                    loop {
                        let t = match task.take() {
                            Some(t) => t,
                            None => s.next_task(),
                        };
                        match t {
                            StmTask::Done => break,
                            StmTask::Execute { tx, incarnation } => {
                                task = s.finish_execution(tx, incarnation, true);
                            }
                            StmTask::Validate { tx, incarnation } => {
                                if incarnation == 0 && s.try_validation_abort(tx, 0) {
                                    task = s.finish_validation(tx, true);
                                } else {
                                    validated[tx].fetch_add(1, Ordering::Relaxed);
                                    task = s.finish_validation(tx, false);
                                }
                            }
                        }
                    }
                });
            }
        });
        assert!(s.is_done());
        for v in validated.iter() {
            assert!(v.load(Ordering::Relaxed) >= 1);
        }
    }
}
