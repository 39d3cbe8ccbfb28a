//! Offline stand-in for `parking_lot`: the same `Mutex` / `RwLock` /
//! `Condvar` surface over `std::sync`. Like parking_lot, locks do not
//! poison: a guard is recovered from a poisoned std lock.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};
use std::time::Duration;

#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Holds the std guard in an `Option` so [`Condvar::wait`] can move it
/// through `std::sync::Condvar::wait` and put it back.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }

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

/// Result of a timed wait.
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present");
        let (inner, result) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[derive(Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
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
    fn try_lock_fails_only_while_held() {
        let m = Mutex::new(1);
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        assert_eq!(*m.try_lock().expect("free"), 1);
    }
}
