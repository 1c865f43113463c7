//! The engine's two sharing families: what its shared state is kept in.
//!
//! [`EngineCore`](crate::EngineCore), [`Engine`](crate::Engine) and the
//! protocols' shared state are written once against a [`Sharing`] family
//! and built in one of two:
//!
//! * [`Threads`] — the threaded runtime's engine: `parking_lot` mutexes
//!   and readers-writer locks, each tagged with its lock-order class for
//!   the `lrc-lockdep` verifier, and relaxed-atomic statistics cells. It is
//!   `Send + Sync`, so one engine serves every processor's thread.
//! * [`OneThread`] — the trace-driven simulator's engine: `RefCell`s for
//!   both lock kinds and `Cell<u64>` statistics. It is not `Sync`, so the
//!   compiler keeps it on the one thread that built it, where a lock is a
//!   borrow flag and a counter update a load and a store. A borrow
//!   conflict panics exactly where a `Threads` engine would deadlock on
//!   its own mutex.
//!
//! Every call site is the same in both: `.lock()`, `.try_lock()`,
//! `.read()` and `.write()` go through [`LockCell`] and [`RwCell`], and
//! counters through [`Tally`]. One source, two monomorphizations — as
//! [`Engine`](crate::Engine) already is for the two protocol families.

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::AtomicU64;

use lrc_simnet::Tally;
use parking_lot::lockdep::Class;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A sharing family: the mutex, the readers-writer lock and the counter
/// cell an engine keeps its shared state in.
pub trait Sharing: fmt::Debug + 'static {
    /// The mutex.
    type Mutex<T: fmt::Debug>: LockCell<T> + fmt::Debug;
    /// The readers-writer lock.
    type RwLock<T: fmt::Debug>: RwCell<T> + fmt::Debug;
    /// The statistics cell (event counters, in-flight gauges, the fabric
    /// meter).
    type Cell: Tally;
}

/// The threaded runtime's family: lockdep-tagged `parking_lot` locks and
/// relaxed atomics. Its engines are `Send + Sync`.
#[derive(Debug)]
pub enum Threads {}

/// The single-threaded simulator's family: `RefCell`s and `Cell<u64>`s.
/// Its engines are not `Sync`: no second thread can reach them.
#[derive(Debug)]
pub enum OneThread {}

impl Sharing for Threads {
    type Mutex<T: fmt::Debug> = Mutex<T>;
    type RwLock<T: fmt::Debug> = RwLock<T>;
    type Cell = AtomicU64;
}

impl Sharing for OneThread {
    type Mutex<T: fmt::Debug> = RefCell<T>;
    type RwLock<T: fmt::Debug> = RefCell<T>;
    type Cell = Cell<u64>;
}

/// A family's mutex.
pub trait LockCell<T> {
    /// Exclusive access, held until dropped.
    type Guard<'a>: DerefMut<Target = T>
    where
        Self: 'a;

    /// Wraps `value`; `class` is its place in the lock order (the
    /// verifier's tag, unused where no second thread exists).
    fn new_in(value: T, class: Class) -> Self;

    /// Takes the lock.
    fn lock(&self) -> Self::Guard<'_>;

    /// Takes the lock only if it is free now.
    fn try_lock(&self) -> Option<Self::Guard<'_>>;
}

/// A family's readers-writer lock.
pub trait RwCell<T> {
    /// Shared access, held until dropped.
    type ReadGuard<'a>: Deref<Target = T>
    where
        Self: 'a;
    /// Exclusive access, held until dropped.
    type WriteGuard<'a>: DerefMut<Target = T>
    where
        Self: 'a;

    /// Wraps `value`; `class` as for [`LockCell::new_in`].
    fn new_in(value: T, class: Class) -> Self;

    /// Takes shared access.
    fn read(&self) -> Self::ReadGuard<'_>;

    /// Takes exclusive access.
    fn write(&self) -> Self::WriteGuard<'_>;
}

impl<T> LockCell<T> for Mutex<T> {
    type Guard<'a>
        = MutexGuard<'a, T>
    where
        T: 'a;

    fn new_in(value: T, class: Class) -> Self {
        Mutex::new_in(value, class)
    }

    #[track_caller]
    fn lock(&self) -> MutexGuard<'_, T> {
        Mutex::lock(self)
    }

    #[track_caller]
    fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        Mutex::try_lock(self)
    }
}

impl<T> RwCell<T> for RwLock<T> {
    type ReadGuard<'a>
        = RwLockReadGuard<'a, T>
    where
        T: 'a;
    type WriteGuard<'a>
        = RwLockWriteGuard<'a, T>
    where
        T: 'a;

    fn new_in(value: T, class: Class) -> Self {
        RwLock::new_in(value, class)
    }

    #[track_caller]
    fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLock::read(self)
    }

    #[track_caller]
    fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLock::write(self)
    }
}

impl<T> LockCell<T> for RefCell<T> {
    type Guard<'a>
        = RefMut<'a, T>
    where
        T: 'a;

    fn new_in(value: T, _class: Class) -> Self {
        RefCell::new(value)
    }

    fn lock(&self) -> RefMut<'_, T> {
        self.borrow_mut()
    }

    fn try_lock(&self) -> Option<RefMut<'_, T>> {
        self.try_borrow_mut().ok()
    }
}

impl<T> RwCell<T> for RefCell<T> {
    type ReadGuard<'a>
        = Ref<'a, T>
    where
        T: 'a;
    type WriteGuard<'a>
        = RefMut<'a, T>
    where
        T: 'a;

    fn new_in(value: T, _class: Class) -> Self {
        RefCell::new(value)
    }

    fn read(&self) -> Ref<'_, T> {
        self.borrow()
    }

    fn write(&self) -> RefMut<'_, T> {
        self.borrow_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::lockdep::classes;

    fn exercise<S: Sharing>() {
        let m = <S::Mutex<u32> as LockCell<u32>>::new_in(1, classes::ENGINE_SHARD);
        *m.lock() += 1;
        {
            let held = m.lock();
            assert!(m.try_lock().is_none(), "a held mutex is not free");
            assert_eq!(*held, 2);
        }
        assert!(m.try_lock().is_some());
        let rw = <S::RwLock<u32> as RwCell<u32>>::new_in(1, classes::CORE_STORE);
        *rw.write() += 1;
        let (a, b) = (rw.read(), rw.read());
        assert_eq!(*a + *b, 4, "readers share");
    }

    #[test]
    fn both_families_lock_alike() {
        exercise::<Threads>();
        exercise::<OneThread>();
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn one_thread_reentry_panics_instead_of_hanging() {
        let m = <RefCell<u32> as LockCell<u32>>::new_in(0, classes::ENGINE_SHARD);
        let _held = m.lock();
        let _again = m.lock();
    }
}
