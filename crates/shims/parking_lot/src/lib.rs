//! Offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! Provides the no-poison `lock()`/`read()`/`write()` API the workspace
//! uses. Poisoned std locks are recovered transparently: a panic while a
//! lock is held aborts the holding test anyway, and state behind these
//! locks is only shared between benchmark/validator threads that never
//! intentionally panic mid-update.
//!
//! # `check-sync` instrumentation
//!
//! With the `check-sync` feature, every lock carries a
//! `fabric_check::LockTag` and acquisitions flow through the
//! fabric-check lock-order graph: cycle detection, `LOCK_ORDER.txt`
//! manifest enforcement and seeded schedule perturbation. The
//! [`Mutex::named`]/[`RwLock::named`]
//! constructors give a lock its allocation-site label (instances
//! sharing a label share a graph node); unnamed locks get per-instance
//! nodes. The feature only *compiles* the hooks — checking stays off
//! until `FABRIC_CHECK_SYNC=1` or `fabric_check::enable()` turns it on
//! at runtime (one atomic load per acquisition when off), so building
//! with the feature does not perturb uninstrumented workloads.

use std::sync::{self, LockResult};

/// A mutual-exclusion lock with parking_lot's non-poisoning interface.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "check-sync")]
    tag: fabric_check::LockTag,
    inner: sync::Mutex<T>,
}

fn recover<G>(result: LockResult<G>) -> G {
    match result {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl<T> Mutex<T> {
    /// Creates a new (anonymous) mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(feature = "check-sync")]
            tag: fabric_check::LockTag::new(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Creates a mutex labeled for the fabric-check lock-order graph.
    /// Labels follow the `crate.site` convention and (except `test.*`)
    /// must be covered by `crates/fabric-check/LOCK_ORDER.txt`; without
    /// the `check-sync` feature the label compiles away.
    #[cfg(feature = "check-sync")]
    pub const fn named(label: &'static str, value: T) -> Self {
        Mutex {
            tag: fabric_check::LockTag::named(label),
            inner: sync::Mutex::new(value),
        }
    }

    /// Creates a mutex labeled for the fabric-check lock-order graph.
    /// Labels follow the `crate.site` convention and (except `test.*`)
    /// must be covered by `crates/fabric-check/LOCK_ORDER.txt`; without
    /// the `check-sync` feature the label compiles away.
    #[cfg(not(feature = "check-sync"))]
    pub const fn named(_label: &'static str, value: T) -> Self {
        Self::new(value)
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    #[cfg(not(feature = "check-sync"))]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        recover(self.inner.lock())
    }

    /// Acquires the lock, blocking until available.
    #[cfg(feature = "check-sync")]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let Some(pending) = fabric_check::before_acquire(&self.tag, fabric_check::Mode::Exclusive)
        else {
            return MutexGuard {
                token: None,
                inner: std::mem::ManuallyDrop::new(recover(self.inner.lock())),
            };
        };
        let inner = recover(self.inner.lock());
        MutexGuard {
            token: Some(fabric_check::after_acquire(pending)),
            inner: std::mem::ManuallyDrop::new(inner),
        }
    }

    /// Returns a mutable reference without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }
}

/// RAII guard for [`Mutex::lock`].
#[cfg(not(feature = "check-sync"))]
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

/// RAII guard for [`Mutex::lock`], carrying its fabric-check held
/// token. `ManuallyDrop` lets [`Condvar::wait`] move the std guard out
/// while the token is parked on a reacquire ticket.
#[cfg(feature = "check-sync")]
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    token: Option<fabric_check::HeldToken>,
    inner: std::mem::ManuallyDrop<sync::MutexGuard<'a, T>>,
}

#[cfg(feature = "check-sync")]
impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(feature = "check-sync")]
impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(feature = "check-sync")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = self.token.take() {
            fabric_check::release(t);
        }
        // Release the std guard (and the lock) after the token pop so
        // the held-stack never claims a lock this thread no longer has.
        unsafe { std::mem::ManuallyDrop::drop(&mut self.inner) }
    }
}

/// A reader-writer lock with parking_lot's non-poisoning interface.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    #[cfg(feature = "check-sync")]
    tag: fabric_check::LockTag,
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new (anonymous) reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(feature = "check-sync")]
            tag: fabric_check::LockTag::new(),
            inner: sync::RwLock::new(value),
        }
    }

    /// Creates a labeled reader-writer lock; see [`Mutex::named`].
    #[cfg(feature = "check-sync")]
    pub const fn named(label: &'static str, value: T) -> Self {
        RwLock {
            tag: fabric_check::LockTag::named(label),
            inner: sync::RwLock::new(value),
        }
    }

    /// Creates a labeled reader-writer lock; see [`Mutex::named`].
    #[cfg(not(feature = "check-sync"))]
    pub const fn named(_label: &'static str, value: T) -> Self {
        Self::new(value)
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    #[cfg(not(feature = "check-sync"))]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        recover(self.inner.read())
    }

    /// Acquires a shared read lock.
    #[cfg(feature = "check-sync")]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let Some(pending) = fabric_check::before_acquire(&self.tag, fabric_check::Mode::Shared)
        else {
            return RwLockReadGuard {
                token: None,
                inner: recover(self.inner.read()),
            };
        };
        let inner = recover(self.inner.read());
        RwLockReadGuard {
            token: Some(fabric_check::after_acquire(pending)),
            inner,
        }
    }

    /// Acquires an exclusive write lock.
    #[cfg(not(feature = "check-sync"))]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        recover(self.inner.write())
    }

    /// Acquires an exclusive write lock.
    #[cfg(feature = "check-sync")]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let Some(pending) = fabric_check::before_acquire(&self.tag, fabric_check::Mode::Exclusive)
        else {
            return RwLockWriteGuard {
                token: None,
                inner: recover(self.inner.write()),
            };
        };
        let inner = recover(self.inner.write());
        RwLockWriteGuard {
            token: Some(fabric_check::after_acquire(pending)),
            inner,
        }
    }

    /// Returns a mutable reference without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }
}

/// RAII guard for [`RwLock::read`].
#[cfg(not(feature = "check-sync"))]
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// RAII guard for [`RwLock::write`].
#[cfg(not(feature = "check-sync"))]
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

/// RAII guard for [`RwLock::read`] with its fabric-check held token.
#[cfg(feature = "check-sync")]
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    token: Option<fabric_check::HeldToken>,
    inner: sync::RwLockReadGuard<'a, T>,
}

#[cfg(feature = "check-sync")]
impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(feature = "check-sync")]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = self.token.take() {
            fabric_check::release(t);
        }
    }
}

/// RAII guard for [`RwLock::write`] with its fabric-check held token.
#[cfg(feature = "check-sync")]
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    token: Option<fabric_check::HeldToken>,
    inner: sync::RwLockWriteGuard<'a, T>,
}

#[cfg(feature = "check-sync")]
impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(feature = "check-sync")]
impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(feature = "check-sync")]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = self.token.take() {
            fabric_check::release(t);
        }
    }
}

/// A condition variable with a `std`-style `wait(guard) -> guard` API
/// (the workspace's wait loops re-bind the guard), integrated with the
/// fabric-check held stack under `check-sync`: the wait releases the
/// lock's token and the wake-up reacquisition re-runs the full order
/// check, since it can deadlock like any other acquisition.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Blocks until notified, atomically releasing the mutex while
    /// parked; returns the reacquired guard.
    #[cfg(not(feature = "check-sync"))]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        recover(self.inner.wait(guard))
    }

    /// Blocks until notified, atomically releasing the mutex while
    /// parked; returns the reacquired guard.
    #[cfg(feature = "check-sync")]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let ticket = guard.token.take().and_then(fabric_check::condvar_release);
        let inner = unsafe { std::mem::ManuallyDrop::take(&mut guard.inner) };
        std::mem::forget(guard);
        let inner = recover(self.inner.wait(inner));
        MutexGuard {
            token: ticket.map(fabric_check::reacquire),
            inner: std::mem::ManuallyDrop::new(inner),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn named_mutex_basic() {
        let m = Mutex::named("test.shim_mutex", 1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn named_rwlock_basic() {
        let l = RwLock::named("test.shim_rwlock", 7u64);
        assert_eq!(*l.read(), 7);
        *l.write() += 1;
        assert_eq!(l.into_inner(), 8);
    }

    #[test]
    fn condvar_wait_roundtrip() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::named("test.shim_cv", false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            while !*done {
                done = cv.wait(done);
            }
            true
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().expect("waiter thread"));
    }
}
