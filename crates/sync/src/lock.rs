use std::error::Error;
use std::fmt;

use lrc_vclock::ProcId;

/// Identifier of an exclusive lock.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LockId(u32);

impl LockId {
    /// Creates a lock id from its dense index.
    pub fn new(index: u32) -> Self {
        LockId(index)
    }

    /// Returns the id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw numeric id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for LockId {
    fn from(index: u32) -> Self {
        LockId(index)
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lk{}", self.0)
    }
}

/// Errors from lock operations. In a legal trace these indicate a malformed
/// workload; in the runtime they indicate misuse of the API.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockError {
    /// The lock id is outside the table.
    UnknownLock(LockId),
    /// The processor id is outside the system.
    UnknownProc(ProcId),
    /// Acquire of a lock the processor already holds.
    AlreadyHeld {
        /// The lock.
        lock: LockId,
        /// Its current holder (the requester itself).
        holder: ProcId,
    },
    /// Acquire of a lock held by another processor (the caller must wait).
    HeldByOther {
        /// The lock.
        lock: LockId,
        /// Its current holder.
        holder: ProcId,
    },
    /// Release of a lock the processor does not hold.
    NotHolder {
        /// The lock.
        lock: LockId,
        /// Its current holder, if any.
        holder: Option<ProcId>,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::UnknownLock(l) => write!(f, "unknown lock {l}"),
            LockError::UnknownProc(p) => write!(f, "unknown processor {p}"),
            LockError::AlreadyHeld { lock, holder } => {
                write!(f, "{holder} acquired {lock} twice without releasing")
            }
            LockError::HeldByOther { lock, holder } => {
                write!(f, "{lock} is held by {holder}")
            }
            LockError::NotHolder {
                lock,
                holder: Some(h),
            } => {
                write!(f, "release of {lock} held by {h}")
            }
            LockError::NotHolder { lock, holder: None } => {
                write!(f, "release of free lock {lock}")
            }
        }
    }
}

impl Error for LockError {}

/// The message path of a successful lock acquire.
///
/// Each hop is `Some((src, dst))` when a real message crosses the wire and
/// `None` when that hop is local (e.g. the requester is the lock's home, or
/// it re-acquires a lock it released last). The protocol engine charges the
/// hops with its own payloads — in particular the grant carries the lazy
/// protocols' piggybacked consistency data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AcquirePath {
    /// The processor that grants the lock: the last releaser, or the home
    /// if the lock has never been released. Consistency information flows
    /// from this processor.
    pub grantor: ProcId,
    /// Position of this acquire in the lock's total grant order (1 for the
    /// lock's first-ever grant). Assigned by the table under its own
    /// serialization, so observers of the grant sequence — notably the
    /// history recorder — need no engine-wide lock to agree with the order
    /// the lock actually changed hands in.
    pub grant_seq: u64,
    /// Requester → home.
    pub request: Option<(ProcId, ProcId)>,
    /// Home → grantor.
    pub forward: Option<(ProcId, ProcId)>,
    /// Grantor → requester.
    pub grant: Option<(ProcId, ProcId)>,
}

/// The distributed lock directory.
///
/// Each lock has a static *home* processor (`lock mod n_procs`) that always
/// knows the lock's current grantor, mirroring Munin/TreadMarks lock
/// management. The table tracks holders and last releasers and computes the
/// [`AcquirePath`] for every acquire.
///
/// # Example
///
/// ```
/// use lrc_sync::{LockId, LockTable};
/// use lrc_vclock::ProcId;
///
/// let mut locks = LockTable::new(1, 4);
/// let l = LockId::new(0);
/// let p1 = ProcId::new(1);
///
/// let path = locks.acquire(p1, l)?;
/// assert_eq!(path.grantor, ProcId::new(0)); // home grants a fresh lock
/// locks.release(p1, l)?;
///
/// // Re-acquiring a lock this processor released last is free.
/// let path = locks.acquire(p1, l)?;
/// assert_eq!((path.request, path.forward, path.grant), (None, None, None));
/// # Ok::<(), lrc_sync::LockError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LockTable {
    n_procs: usize,
    holder: Vec<Option<ProcId>>,
    grantor: Vec<ProcId>,
    /// Grants handed out so far, per lock. The current holder's grant is
    /// `grant_seq[lock]`; a release closes exactly that grant.
    grant_seq: Vec<u64>,
}

impl LockTable {
    /// Creates a table of `n_locks` free locks for an `n_procs` system.
    ///
    /// # Panics
    ///
    /// Panics if `n_procs` is zero.
    pub fn new(n_locks: usize, n_procs: usize) -> Self {
        assert!(n_procs > 0, "lock table needs at least one processor");
        let grantor = (0..n_locks)
            .map(|l| ProcId::new((l % n_procs) as u16))
            .collect();
        LockTable {
            n_procs,
            holder: vec![None; n_locks],
            grantor,
            grant_seq: vec![0; n_locks],
        }
    }

    /// The static home of `lock` — the processor that tracks its grantor.
    ///
    /// # Panics
    ///
    /// Panics if `lock` is out of range.
    pub(crate) fn home(&self, lock: LockId) -> ProcId {
        assert!(lock.index() < self.holder.len(), "unknown lock {lock}");
        ProcId::new((lock.index() % self.n_procs) as u16)
    }

    /// Current holder of `lock`, if any.
    pub fn holder(&self, lock: LockId) -> Option<ProcId> {
        self.holder.get(lock.index()).copied().flatten()
    }

    /// Every lock currently held by `p` (crash recovery: the locks a dead
    /// holder must be forced to release).
    pub fn held_by(&self, p: ProcId) -> Vec<LockId> {
        self.holder
            .iter()
            .enumerate()
            .filter(|(_, h)| **h == Some(p))
            .map(|(l, _)| LockId::new(l as u32))
            .collect()
    }

    fn check(&self, p: ProcId, lock: LockId) -> Result<(), LockError> {
        if lock.index() >= self.holder.len() {
            return Err(LockError::UnknownLock(lock));
        }
        if p.index() >= self.n_procs {
            return Err(LockError::UnknownProc(p));
        }
        Ok(())
    }

    /// Acquires `lock` for processor `p` and returns the message path.
    ///
    /// # Errors
    ///
    /// * [`LockError::AlreadyHeld`] if `p` holds the lock already;
    /// * [`LockError::HeldByOther`] if another processor holds it (the
    ///   caller must retry after the holder releases);
    /// * [`LockError::UnknownLock`] / [`LockError::UnknownProc`] on range
    ///   errors.
    pub fn acquire(&mut self, p: ProcId, lock: LockId) -> Result<AcquirePath, LockError> {
        self.check(p, lock)?;
        match self.holder[lock.index()] {
            Some(h) if h == p => return Err(LockError::AlreadyHeld { lock, holder: h }),
            Some(h) => return Err(LockError::HeldByOther { lock, holder: h }),
            None => {}
        }
        let home = self.home(lock);
        let grantor = self.grantor[lock.index()];
        self.holder[lock.index()] = Some(p);
        self.grant_seq[lock.index()] += 1;
        let grant_no = self.grant_seq[lock.index()];

        // Hops are messages only between distinct processors. Four shapes:
        //   p == grantor            -> free local re-acquire
        //   p == home != grantor    -> forward + grant
        //   grantor == home != p    -> request + grant
        //   all distinct            -> request + forward + grant
        let path = if p == grantor {
            AcquirePath {
                grantor,
                grant_seq: grant_no,
                request: None,
                forward: None,
                grant: None,
            }
        } else if p == home {
            AcquirePath {
                grantor,
                grant_seq: grant_no,
                request: None,
                forward: Some((home, grantor)),
                grant: Some((grantor, p)),
            }
        } else if grantor == home {
            AcquirePath {
                grantor,
                grant_seq: grant_no,
                request: Some((p, home)),
                forward: None,
                grant: Some((grantor, p)),
            }
        } else {
            AcquirePath {
                grantor,
                grant_seq: grant_no,
                request: Some((p, home)),
                forward: Some((home, grantor)),
                grant: Some((grantor, p)),
            }
        };
        Ok(path)
    }

    /// Releases `lock`; `p` becomes its grantor (last releaser). Returns
    /// the grant number this release closes — the one assigned to `p`'s
    /// matching acquire (holders are exclusive, so no grant can intervene).
    ///
    /// The release itself sends no messages in any of the four protocols —
    /// eager protocols send *consistency* traffic at release, which the
    /// protocol engines charge separately. The home learns the new grantor
    /// lazily, when it next forwards a request (standard distributed lock
    /// management; charging an extra update message here would change no
    /// comparison since every protocol would pay it equally).
    ///
    /// # Errors
    ///
    /// [`LockError::NotHolder`] if `p` does not hold the lock, plus the
    /// range errors of [`LockTable::acquire`].
    pub fn release(&mut self, p: ProcId, lock: LockId) -> Result<u64, LockError> {
        self.check(p, lock)?;
        match self.holder[lock.index()] {
            Some(h) if h == p => {
                self.holder[lock.index()] = None;
                self.grantor[lock.index()] = p;
                Ok(self.grant_seq[lock.index()])
            }
            other => Err(LockError::NotHolder {
                lock,
                holder: other,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u16) -> ProcId {
        ProcId::new(i)
    }

    #[test]
    fn homes_are_distributed_round_robin() {
        let t = LockTable::new(5, 3);
        assert_eq!(t.home(LockId::new(0)), p(0));
        assert_eq!(t.home(LockId::new(1)), p(1));
        assert_eq!(t.home(LockId::new(2)), p(2));
        assert_eq!(t.home(LockId::new(3)), p(0));
    }

    #[test]
    fn fresh_lock_granted_by_home() {
        let mut t = LockTable::new(1, 4);
        let path = t.acquire(p(2), LockId::new(0)).unwrap();
        assert_eq!(path.grantor, p(0));
        // requester != home == grantor: request + grant.
        assert_eq!(path.request, Some((p(2), p(0))));
        assert_eq!(path.forward, None);
        assert_eq!(path.grant, Some((p(0), p(2))));
        assert_eq!(t.holder(LockId::new(0)), Some(p(2)));
    }

    #[test]
    fn three_hop_path_when_all_distinct() {
        let mut t = LockTable::new(1, 4);
        let l = LockId::new(0);
        t.acquire(p(1), l).unwrap();
        t.release(p(1), l).unwrap();
        // home = p0, grantor = p1, requester = p2: full three messages.
        let path = t.acquire(p(2), l).unwrap();
        assert_eq!(path.grantor, p(1));
        assert_eq!(path.request, Some((p(2), p(0))));
        assert_eq!(path.forward, Some((p(0), p(1))));
        assert_eq!(path.grant, Some((p(1), p(2))));
    }

    #[test]
    fn home_requester_skips_request_message() {
        let mut t = LockTable::new(1, 4);
        let l = LockId::new(0);
        t.acquire(p(1), l).unwrap();
        t.release(p(1), l).unwrap();
        // requester == home = p0, grantor = p1: forward + grant.
        let path = t.acquire(p(0), l).unwrap();
        assert_eq!(path.request, None);
        assert_eq!(path.forward, Some((p(0), p(1))));
        assert_eq!(path.grant, Some((p(1), p(0))));
    }

    #[test]
    fn local_reacquire_is_free() {
        let mut t = LockTable::new(1, 4);
        let l = LockId::new(0);
        t.acquire(p(3), l).unwrap();
        t.release(p(3), l).unwrap();
        let path = t.acquire(p(3), l).unwrap();
        assert_eq!((path.request, path.forward, path.grant), (None, None, None));
        assert_eq!(path.grantor, p(3));
    }

    #[test]
    fn double_acquire_rejected() {
        let mut t = LockTable::new(1, 2);
        let l = LockId::new(0);
        t.acquire(p(0), l).unwrap();
        assert_eq!(
            t.acquire(p(0), l),
            Err(LockError::AlreadyHeld {
                lock: l,
                holder: p(0)
            })
        );
        assert_eq!(
            t.acquire(p(1), l),
            Err(LockError::HeldByOther {
                lock: l,
                holder: p(0)
            })
        );
    }

    #[test]
    fn release_validates_holder() {
        let mut t = LockTable::new(1, 2);
        let l = LockId::new(0);
        assert_eq!(
            t.release(p(0), l),
            Err(LockError::NotHolder {
                lock: l,
                holder: None
            })
        );
        t.acquire(p(1), l).unwrap();
        assert_eq!(
            t.release(p(0), l),
            Err(LockError::NotHolder {
                lock: l,
                holder: Some(p(1))
            })
        );
        assert!(t.release(p(1), l).is_ok());
        assert_eq!(t.holder(l), None);
        assert_eq!(t.acquire(p(0), l).unwrap().grantor, p(1));
    }

    #[test]
    fn range_errors() {
        let mut t = LockTable::new(1, 2);
        assert_eq!(
            t.acquire(p(0), LockId::new(9)),
            Err(LockError::UnknownLock(LockId::new(9)))
        );
        assert_eq!(
            t.acquire(p(7), LockId::new(0)),
            Err(LockError::UnknownProc(p(7)))
        );
    }

    #[test]
    fn error_messages_are_meaningful() {
        let e = LockError::HeldByOther {
            lock: LockId::new(2),
            holder: p(1),
        };
        assert_eq!(e.to_string(), "lk2 is held by p1");
    }

    #[test]
    fn grant_numbers_sequence_per_lock_and_close_on_release() {
        let mut t = LockTable::new(2, 4);
        let (a, b) = (LockId::new(0), LockId::new(1));
        assert_eq!(t.acquire(p(1), a).unwrap().grant_seq, 1);
        assert_eq!(t.release(p(1), a).unwrap(), 1);
        assert_eq!(t.acquire(p(2), a).unwrap().grant_seq, 2);
        // Independent sequence per lock; a failed acquire burns no grant.
        assert_eq!(t.acquire(p(3), b).unwrap().grant_seq, 1);
        assert!(t.acquire(p(0), a).is_err());
        assert_eq!(t.release(p(2), a).unwrap(), 2);
        assert_eq!(t.acquire(p(0), a).unwrap().grant_seq, 3);
    }

    #[test]
    fn held_by_lists_exactly_the_holders_locks() {
        let mut t = LockTable::new(3, 2);
        assert!(t.held_by(p(0)).is_empty());
        t.acquire(p(0), LockId::new(0)).unwrap();
        t.acquire(p(0), LockId::new(2)).unwrap();
        t.acquire(p(1), LockId::new(1)).unwrap();
        assert_eq!(t.held_by(p(0)), vec![LockId::new(0), LockId::new(2)]);
        assert_eq!(t.held_by(p(1)), vec![LockId::new(1)]);
        t.release(p(0), LockId::new(0)).unwrap();
        assert_eq!(t.held_by(p(0)), vec![LockId::new(2)]);
    }

    #[test]
    fn migratory_rotation_uses_three_messages_steady_state() {
        // p1..p3 rotate through the lock (home p0): after the first two
        // acquires, every transfer is requester -> home -> last releaser ->
        // requester = 3 messages, matching Table 1's lock row.
        let mut t = LockTable::new(1, 4);
        let l = LockId::new(0);
        t.acquire(p(1), l).unwrap();
        t.release(p(1), l).unwrap();
        for round in 0..6 {
            let requester = p(2 + (round % 2) as u16); // p2, p3 alternating
            let path = t.acquire(requester, l).unwrap();
            let hops = [path.request, path.forward, path.grant];
            assert!(hops.iter().all(Option::is_some), "round {round}");
            t.release(requester, l).unwrap();
        }
    }
}
