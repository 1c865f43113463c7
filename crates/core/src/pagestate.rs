use lrc_pagemem::{PageBuf, PageSize};

/// One processor's frame of one page — the part of the page table both
/// protocol families share.
///
/// Invariants maintained by the engines:
///
/// * `valid` implies `copy.is_some()` — a valid copy reflects every
///   modification the processor has been told about;
/// * `twin.is_some()` iff the page is dirty in the current interval
///   (lazy) or epoch (eager).
///
/// Protocol-specific per-page state is the extension `E` (the lazy
/// protocol's pending write notices; nothing, and therefore no bytes, for
/// the eager baseline): every processor holds a frame for every page, so
/// the frame stays as small as each protocol needs.
#[derive(Clone, Debug, Default)]
pub struct Frame<E> {
    /// The processor's copy of the page, if it ever fetched or wrote it.
    pub copy: Option<PageBuf>,
    /// Twin made before the first write of the current interval.
    pub twin: Option<PageBuf>,
    /// True if `copy` reflects all known modifications.
    pub valid: bool,
    /// The protocol's per-page state.
    pub ext: E,
}

impl<E> Frame<E> {
    /// True if the page is writable in the current interval (dirty).
    pub fn is_dirty(&self) -> bool {
        self.twin.is_some()
    }

    /// Ensures a zeroed copy exists (cold pages start as the initial,
    /// all-zero contents) and returns it mutably.
    pub fn copy_mut(&mut self, size: PageSize) -> &mut PageBuf {
        self.copy.get_or_insert_with(|| PageBuf::zeroed(size))
    }

    /// Makes the twin if the page is not yet dirty in this interval.
    ///
    /// # Panics
    ///
    /// Panics if the page has no copy yet; the engine always resolves the
    /// miss (creating the copy) before the first write.
    pub fn ensure_twin(&mut self) {
        if self.twin.is_none() {
            let copy = self.copy.as_ref().expect("twin requires a resident copy");
            self.twin = Some(copy.clone());
        }
    }

    /// The last *committed* contents: the twin of a dirty page (kept in
    /// sync with every applied diff), else the copy. A dirty page's live
    /// copy holds uncommitted writes that must not leak — to a faulting
    /// processor, a checkpoint, or the death escrow — before their
    /// release. `None` for a page never resident.
    pub fn committed(&self) -> Option<&PageBuf> {
        self.twin.as_ref().or(self.copy.as_ref())
    }

    /// Installs checkpointed state: `contents` (page-sized, if the page
    /// was resident) and the validity bit.
    pub fn install(&mut self, contents: Option<&[u8]>, valid: bool, size: PageSize) {
        if let Some(contents) = contents {
            self.copy_mut(size).write(0, contents);
        }
        self.valid = valid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_vclock::{IntervalId, ProcId};

    fn size() -> PageSize {
        PageSize::new(128).unwrap()
    }

    #[test]
    fn default_entry_is_cold() {
        let e = Frame::<()>::default();
        assert!(e.copy.is_none());
        assert!(!e.valid);
        assert!(!e.is_dirty());
        assert!(e.committed().is_none());
    }

    #[test]
    fn copy_mut_materializes_zeroed_page() {
        let mut e = Frame::<()>::default();
        let copy = e.copy_mut(size());
        assert!(copy.as_bytes().iter().all(|&b| b == 0));
        copy.write(0, &[5]);
        assert_eq!(e.copy.as_ref().unwrap().as_bytes()[0], 5);
    }

    #[test]
    fn ensure_twin_snapshots_once() {
        let mut e = Frame::<()>::default();
        e.copy_mut(size()).write(0, &[1]);
        e.ensure_twin();
        assert!(e.is_dirty());
        // Further writes do not disturb the twin.
        e.copy.as_mut().unwrap().write(0, &[2]);
        e.ensure_twin();
        assert_eq!(e.twin.as_ref().unwrap().as_bytes()[0], 1);
        assert_eq!(e.committed().unwrap().as_bytes()[0], 1, "twin, not copy");
    }

    #[test]
    #[should_panic(expected = "resident copy")]
    fn twin_requires_copy() {
        let mut e = Frame::<()>::default();
        e.ensure_twin();
    }

    #[test]
    fn pending_tracks_notices() {
        let mut e = Frame::<Vec<IntervalId>>::default();
        assert!(e.ext.is_empty());
        e.ext.push(IntervalId::new(ProcId::new(1), 3));
        assert_eq!(e.ext.len(), 1);
    }
}
