//! Would-fail coverage for the verifier: each test builds a deliberate
//! lock-order bug out of real `parking_lot` stub locks and asserts the
//! collected report names both acquisition chains. Two tests drive a
//! condvar round trip to prove the release-and-reacquire is modeled (no
//! false positive), and three pin the stub's inline skip: an `RwLock`'s
//! guards carry its tag, and locks built while the verifier is off stay
//! invisible without disturbing the tracked locks around them.
//!
//! The verifier's mode and class graph are process-global, so every test
//! (a) serializes on one gate, (b) uses class names unique to itself —
//! the subgraphs stay disjoint and one test's edges cannot close another
//! test's cycles.

use std::sync::Arc;

use parking_lot::lockdep::{self, Class, Mode, Violation, ViolationKind};
use parking_lot::{Condvar, Mutex, RwLock};

/// Serializes tests and puts the verifier in collect mode for the scope
/// of one test.
fn collect() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
    lockdep::set_mode(Mode::Collect);
    lockdep::take_violations();
    guard
}

fn reports_of(kind: ViolationKind) -> Vec<Violation> {
    lockdep::take_violations()
        .into_iter()
        .filter(|v| v.kind == kind)
        .collect()
}

#[test]
fn abba_inversion_reports_both_chains() {
    let _serial = collect();
    let a = Arc::new(Mutex::new_in(0u32, Class::new("viol.abba_a2", 301)));
    let b = Arc::new(Mutex::new_in(0u32, Class::new("viol.abba_b2", 302)));

    // Legal direction: A (301) then B (302).
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    // Inverted direction on another thread: B then A. The hierarchy
    // check fires (301 <= 302) and the edge B -> A closes the A -> B
    // cycle; both reports must name both chains.
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    std::thread::spawn(move || {
        let _gb = b2.lock();
        let _ga = a2.lock();
    })
    .join()
    .expect("collect mode never panics");

    let cycles = reports_of(ViolationKind::Cycle);
    assert_eq!(cycles.len(), 1, "one ABBA cycle expected");
    let report = &cycles[0].report;
    assert!(report.contains("viol.abba_a2"), "names class A: {report}");
    assert!(report.contains("viol.abba_b2"), "names class B: {report}");
    assert!(
        report.contains("this acquisition chain"),
        "names the acquiring thread's chain: {report}"
    );
    assert!(
        report.contains("conflicting recorded chain"),
        "names the recorded witness chain: {report}"
    );
    assert!(
        report.contains("violations.rs"),
        "callsites point into this test: {report}"
    );
}

#[test]
fn hierarchy_level_violation_names_both_locks() {
    let _serial = collect();
    let outer = Mutex::new_in((), Class::new("viol.hier_outer", 310));
    let inner = Mutex::new_in((), Class::new("viol.hier_inner", 320));

    // Descending acquisition: inner (320) then outer (310).
    let _gi = inner.lock();
    let _go = outer.lock();
    drop((_go, _gi));

    let violations = reports_of(ViolationKind::Hierarchy);
    assert_eq!(violations.len(), 1, "one hierarchy violation expected");
    let report = &violations[0].report;
    assert!(report.contains("viol.hier_outer"), "{report}");
    assert!(report.contains("viol.hier_inner"), "{report}");
    assert!(report.contains("level 310"), "{report}");
    assert!(report.contains("level 320"), "{report}");
    assert!(report.contains("held locks"), "{report}");
    assert!(report.contains("violations.rs"), "{report}");
}

#[test]
fn same_level_gate_order_violation_is_detected() {
    let _serial = collect();
    let gate = |key: u64| Mutex::new_in((), Class::new("viol.gate", 330).with_order(key));
    let g3 = gate(3);
    let g7 = gate(7);

    // Ascending is the contract: 3 then 7 is clean.
    {
        let _a = g3.lock();
        let _b = g7.lock();
    }
    assert!(
        reports_of(ViolationKind::SameClassOrder).is_empty(),
        "ascending same-class nesting is legal"
    );

    // Descending: 7 then 3 must report, naming both instances.
    let _b = g7.lock();
    let _a = g3.lock();
    let violations = reports_of(ViolationKind::SameClassOrder);
    assert_eq!(violations.len(), 1, "one gate-order violation expected");
    let report = &violations[0].report;
    assert!(report.contains("viol.gate"), "{report}");
    assert!(report.contains("order key 3"), "{report}");
    assert!(report.contains("order key 7"), "{report}");
    assert!(report.contains("violations.rs"), "{report}");
}

#[test]
fn try_lock_records_observation_edges_without_cycles() {
    let _serial = collect();
    let a = Arc::new(Mutex::new_in(0u32, Class::new("viol.try_a", 340)));
    let b = Arc::new(Mutex::new_in(0u32, Class::new("viol.try_b", 341)));

    // A -> B via blocking locks.
    {
        let _ga = a.lock();
        let _gb = b.lock();
    }
    // B -> A via try_lock only: records an observation edge, which must
    // NOT close the cycle (a try-lock cannot block, so it cannot
    // deadlock), and must not trip the hierarchy check either.
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    std::thread::spawn(move || {
        let _gb = b2.lock();
        let _ga = a2.try_lock().expect("uncontended");
    })
    .join()
    .expect("no panic in collect mode");

    assert!(
        lockdep::take_violations().is_empty(),
        "observation edges never complete blocking cycles"
    );
}

#[test]
fn condvar_wait_models_release_and_reacquire() {
    let _serial = collect();
    // The waiter sits on `signal` (level 350) while the notifier takes
    // `signal` and THEN `downstream` (level 351). If the wait failed to
    // release `signal` from the held stack, the waiter's wake-up path
    // below — acquiring `downstream` while "holding" `signal` — would be
    // fine, but the notifier's plain lock would record edges against a
    // phantom holder; worse, a waiter that re-acquired without checking
    // would miss real inversions. Drive the full round trip and assert
    // zero violations *and* that the reacquire is visible as a fresh
    // acquisition (nesting `downstream` under the re-held `signal` is
    // clean, 350 < 351).
    let pair = Arc::new((
        Mutex::new_in(false, Class::new("viol.cv_signal", 350)),
        Condvar::new(),
    ));
    let downstream = Arc::new(Mutex::new_in(0u32, Class::new("viol.cv_down", 351)));

    let (pair2, down2) = (Arc::clone(&pair), Arc::clone(&downstream));
    let waiter = std::thread::spawn(move || {
        let (m, cv) = &*pair2;
        let mut ready = m.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        // The re-held mutex is on the stack again: nest below it.
        *down2.lock() += 1;
    });

    {
        let (m, cv) = &*pair;
        let mut ready = m.lock();
        *ready = true;
        cv.notify_all();
        drop(ready);
    }
    waiter.join().expect("waiter must not report");

    assert!(
        lockdep::take_violations().is_empty(),
        "a condvar round trip is violation-free"
    );
}

#[test]
fn condvar_wait_releases_the_mutex_for_ordering_purposes() {
    let _serial = collect();
    // While parked in `wait`, the mutex must NOT count as held: acquiring
    // a *lower*-level lock after the wait returns on a fresh statement
    // sequence — mutex dropped first — is legal. Model the interesting
    // half directly: waiter holds cv mutex (level 360), waits; on wake it
    // drops the guard, then takes a level-355 lock. Without the release
    // modeling, the held stack would still contain level 360 at that
    // point and report a phantom hierarchy violation.
    let pair = Arc::new((
        Mutex::new_in(false, Class::new("viol.cv2_signal", 360)),
        Condvar::new(),
    ));
    let lower = Arc::new(Mutex::new_in(0u32, Class::new("viol.cv2_lower", 355)));

    let (pair2, lower2) = (Arc::clone(&pair), Arc::clone(&lower));
    let waiter = std::thread::spawn(move || {
        let (m, cv) = &*pair2;
        let mut ready = m.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        drop(ready);
        *lower2.lock() += 1;
    });

    {
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
    }
    waiter.join().expect("waiter must not report");

    assert!(
        lockdep::take_violations().is_empty(),
        "wait releases the mutex; post-wait descending acquisition on a \
         clean stack is legal"
    );
}

#[test]
fn rwlock_guards_report_inversions_through_read_and_write() {
    let _serial = collect();
    let outer = RwLock::new_in(0u32, Class::new("viol.rw_outer", 370));
    let inner = Mutex::new_in((), Class::new("viol.rw_inner", 371));

    // Each guard takes its lock off the held stack again: the same lock,
    // read then written on a clean stack, is no re-entry, and the legal
    // nesting reports nothing.
    drop(outer.read());
    drop(outer.write());
    {
        let _o = outer.read();
        let _i = inner.lock();
    }
    {
        let _o = outer.write();
        let _i = inner.lock();
    }
    assert!(
        lockdep::take_violations().is_empty(),
        "released guards and ascending nesting are clean"
    );

    // Descending through `read()`, then through `write()`: each reports
    // the hierarchy inversion, naming both locks.
    for shared in [true, false] {
        {
            let _i = inner.lock();
            if shared {
                drop(outer.read());
            } else {
                drop(outer.write());
            }
        }
        let violations = reports_of(ViolationKind::Hierarchy);
        assert_eq!(violations.len(), 1, "shared {shared}: {violations:?}");
        let report = &violations[0].report;
        assert!(report.contains("viol.rw_outer"), "{report}");
        assert!(report.contains("viol.rw_inner"), "{report}");
        assert!(report.contains("violations.rs"), "{report}");
    }
}

#[test]
fn locks_built_while_the_verifier_is_off_stay_invisible() {
    let _serial = collect();
    lockdep::set_mode(Mode::Disabled);
    let a = Mutex::new_in(false, Class::new("viol.off_a", 380));
    let b = Mutex::new_in(0u32, Class::new("viol.off_b", 381));
    let rw = RwLock::new(0u32);
    let cv = Condvar::new();
    lockdep::set_mode(Mode::Collect);

    // An ABBA pair, a descending level pair, a re-entrant-looking read
    // and a condvar wait: none of it is seen.
    {
        let _a = a.lock();
        let _b = b.lock();
    }
    {
        let _b = b.lock();
        let _a = a.lock();
    }
    {
        let _r = rw.read();
        let _r2 = rw.read();
        let mut ga = a.lock();
        cv.wait_for(&mut ga, std::time::Duration::from_millis(1));
        let _w = b.lock();
    }
    assert!(
        lockdep::take_violations().is_empty(),
        "untracked locks never reach the verifier"
    );
}

#[test]
fn an_untracked_guard_leaves_exactly_the_tracked_edge() {
    let _serial = collect();
    lockdep::set_mode(Mode::Disabled);
    let untracked = Mutex::new(0u32);
    lockdep::set_mode(Mode::Collect);
    let a = Mutex::new_in(0u32, Class::new("viol.mixed_a", 390));
    let b = Mutex::new_in(0u32, Class::new("viol.mixed_b", 391));

    // A is held while the untracked guard comes and goes, then B nests
    // under A: the held stack is A alone, so the one edge is A -> B.
    {
        let _a = a.lock();
        drop(untracked.lock());
        let _b = b.lock();
    }
    assert!(lockdep::take_violations().is_empty());

    // The inversion closes exactly that edge's cycle; no class of the
    // untracked lock appears in any chain.
    {
        let _b = b.lock();
        let _a = a.lock();
    }
    let cycles = reports_of(ViolationKind::Cycle);
    assert_eq!(cycles.len(), 1, "one cycle expected");
    let report = &cycles[0].report;
    assert!(
        report.contains("held `viol.mixed_a`") && report.contains("acquiring `viol.mixed_b`"),
        "the recorded edge is A -> B: {report}"
    );
    assert!(!report.contains("auto["), "no untracked lock: {report}");
}
