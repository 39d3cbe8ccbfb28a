//! The product's locks: `Mutex` / `RwLock` / `Condvar` over `std::sync`
//! that do not poison.
//!
//! The poison policy is decided here, once, for every lock in the product:
//! a guard is recovered from a poisoned std lock, so `lock`, `read`, `write`
//! and `wait` cannot fail. A thread that panics under one of these locks is
//! a bug that fails its test or ends its stage; the threads that outlive it
//! — the ones draining a pipeline on shutdown — see the data as the last
//! completed statement left it and do not die of a second panic on `lock()`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

/// A mutual-exclusion lock whose `lock` cannot fail.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Holds the std guard in an `Option` so [`Condvar::wait`] can move it
/// through `std::sync::Condvar::wait` and put it back; it is `Some`
/// everywhere else.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// A new, unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex and returns its data.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// The data, without locking: `&mut self` proves there is no other user.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard present outside Condvar::wait")
    }
}

/// A condition variable for [`Mutex`] guards.
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Releases the lock, sleeps until notified (or spuriously woken) and
    /// returns holding the lock again.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// [`wait`](Self::wait) that also returns once `timeout` has passed; the
    /// caller re-checks its own deadline and predicate.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        let inner = guard.0.take().expect("guard present");
        let (inner, _) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A reader-writer lock whose `read` and `write` cannot fail.
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new, unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until exclusive access is held.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn condvar_wait_returns_the_guard_and_sees_the_update() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let setter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                *pair.0.lock() = true;
                pair.1.notify_all();
            })
        };
        let mut ready = pair.0.lock();
        while !*ready {
            pair.1.wait(&mut ready);
        }
        assert!(*ready);
        drop(ready);
        setter.join().expect("setter thread");
    }

    #[test]
    fn a_panic_under_the_lock_leaves_it_lockable_with_its_data() {
        let shared = Arc::new((Mutex::new(vec![1, 2]), RwLock::new(7)));
        let doomed = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut held = shared.0.lock();
                let _also_held = shared.1.write();
                held.push(3);
                panic!("dies holding both locks");
            })
        };
        assert!(doomed.join().is_err());
        assert_eq!(*shared.0.lock(), [1, 2, 3]);
        assert_eq!(*shared.1.read(), 7);
    }
}
