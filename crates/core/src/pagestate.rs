use std::ops::Range;

#[cfg(doc)]
use lrc_pagemem::{Diff, DiffLog};
use lrc_pagemem::{DiffView, PageBuf, PageSize};

/// One processor's frame of one page — the part of the page table both
/// protocol families share.
///
/// Invariants maintained by the engines:
///
/// * `valid` implies `copy.is_some()` — a valid copy reflects every
///   modification the processor has been told about;
/// * `twin.is_some()` iff the page is dirty in the current interval
///   (lazy) or epoch (eager);
/// * a dirty copy equals its twin outside the range written since the
///   twin was made: `Frame::write` is the one writer of a dirty copy's
///   bytes and records that range, and [`Frame::apply`] writes a diff to
///   the copy and the twin alike. So [`Frame::close_twin`] diffs only the
///   written range.
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
    /// The bytes [`Frame::write`] changed since the twin was made.
    written: Written,
    /// The protocol's per-page state.
    pub ext: E,
}

/// The bytes written to a dirty copy since its twin was made, as the
/// first and last offset written (both inclusive; empty while `first >
/// last`). Pages are at most 64 KiB, so two `u16`s hold any range and fit
/// in the frame's padding.
#[derive(Clone, Copy, Debug)]
struct Written {
    first: u16,
    last: u16,
}

impl Written {
    const EMPTY: Written = Written {
        first: u16::MAX,
        last: 0,
    };

    /// Widens the range to cover `len > 0` bytes at `offset`, a write that
    /// fit in its page.
    #[inline]
    fn cover(&mut self, offset: usize, len: usize) {
        self.first = self.first.min(offset as u16);
        self.last = self.last.max((offset + len - 1) as u16);
    }

    /// The range as byte offsets (`0..0` if nothing was written).
    fn range(self) -> Range<usize> {
        if self.first > self.last {
            0..0
        } else {
            self.first as usize..self.last as usize + 1
        }
    }
}

impl Default for Written {
    fn default() -> Self {
        Written::EMPTY
    }
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

    /// Makes the twin if the page is not yet dirty in this interval: the
    /// copy is copied into a consumed twin's buffer taken from `spare`, or
    /// cloned when `spare` is empty. Nothing is written yet.
    ///
    /// # Panics
    ///
    /// Panics if the page has no copy yet; the engine always resolves the
    /// miss (creating the copy) before the first write.
    pub(crate) fn ensure_twin(&mut self, spare: &mut Vec<PageBuf>) {
        if self.twin.is_none() {
            let copy = self.copy.as_ref().expect("twin requires a resident copy");
            self.twin = Some(match spare.pop() {
                Some(mut buf) => {
                    buf.write(0, copy.as_bytes());
                    buf
                }
                None => copy.clone(),
            });
            self.written = Written::EMPTY;
        }
    }

    /// Writes `data` at `offset` into the copy of a dirty page and records
    /// the bytes as written, for [`Frame::close_twin`] to diff.
    ///
    /// # Panics
    ///
    /// Panics if the page is not dirty (see [`Frame::ensure_twin`]) or the
    /// write runs past the end of the page.
    pub(crate) fn write(&mut self, offset: usize, data: &[u8]) {
        assert!(self.is_dirty(), "only a twinned page is written");
        let copy = self.copy.as_mut().expect("dirty page has a copy");
        copy.write(offset, data);
        if !data.is_empty() {
            self.written.cover(offset, data.len());
        }
    }

    /// Applies another processor's `diff` to the copy, materializing a
    /// zeroed one for a cold page, and to the twin of a dirty page: a
    /// concurrent writer's twin stays in sync, so its own diff stays
    /// minimal and correct and copy and twin stay equal outside the
    /// written range.
    ///
    /// # Panics
    ///
    /// Panics if a run of `diff` extends past the end of the page.
    #[inline]
    pub fn apply<'a>(&mut self, diff: impl Into<DiffView<'a>>, size: PageSize) {
        let diff = diff.into();
        diff.apply_to(self.copy_mut(size));
        if let Some(twin) = self.twin.as_mut() {
            diff.apply_to(twin);
        }
    }

    /// Consumes the twin of a dirty page: hands `scan` the twin, the copy
    /// and the range written since the twin was made, outside which the
    /// two are equal, for it to diff ([`Diff::refill`] into a diff of the
    /// caller's, or [`DiffLog::push_between`] onto a log's tail), then
    /// puts the twin's buffer on `spare` for the next first write. Returns
    /// what `scan` returned, or `None` without calling it if the page is
    /// not dirty.
    ///
    /// # Panics
    ///
    /// Panics if a twinned page has no copy.
    pub fn close_twin<T>(
        &mut self,
        spare: &mut Vec<PageBuf>,
        scan: impl FnOnce(&PageBuf, &PageBuf, Range<usize>) -> T,
    ) -> Option<T> {
        let twin = self.twin.take()?;
        let copy = self.copy.as_ref().expect("dirty page has a copy");
        let written = self.written.range();
        debug_assert!(
            twin.as_bytes()[..written.start] == copy.as_bytes()[..written.start]
                && twin.as_bytes()[written.end..] == copy.as_bytes()[written.end..],
            "a dirty copy changed outside its written range"
        );
        let made = scan(&twin, copy, written);
        spare.push(twin);
        Some(made)
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
    pub(crate) fn install(&mut self, contents: Option<&[u8]>, valid: bool, size: PageSize) {
        if let Some(contents) = contents {
            self.copy_mut(size).write(0, contents);
        }
        self.valid = valid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_pagemem::Diff;
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
        e.ensure_twin(&mut Vec::new());
        assert!(e.is_dirty());
        // Further writes do not disturb the twin.
        e.write(0, &[2]);
        e.ensure_twin(&mut Vec::new());
        assert_eq!(e.twin.as_ref().unwrap().as_bytes()[0], 1);
        assert_eq!(e.committed().unwrap().as_bytes()[0], 1, "twin, not copy");
    }

    #[test]
    fn a_closed_twin_is_recycled_with_fresh_contents() {
        let mut spare = Vec::new();
        let mut a = Frame::<()>::default();
        a.copy_mut(size()).write(0, &[7; 128]);
        a.ensure_twin(&mut spare);
        a.write(5, &[1]);
        let mut diff = Diff::default();
        let mut refill = |twin: &PageBuf, copy: &PageBuf, written| diff.refill(twin, copy, written);
        assert!(a.close_twin(&mut spare, &mut refill).is_some(), "dirty");
        assert!(!a.is_dirty() && a.close_twin(&mut spare, &mut refill).is_none());
        assert_eq!(diff.modified_bytes(), 1);
        assert_eq!(spare.len(), 1, "the twin's buffer is kept");

        // The next first write, to another page, reuses it — as a copy of
        // that page, not of the page it last twinned.
        let mut b = Frame::<()>::default();
        b.copy_mut(size());
        b.ensure_twin(&mut spare);
        assert!(spare.is_empty());
        assert_eq!(b.twin, b.copy, "no stale bytes");
    }

    #[test]
    fn a_closed_twin_diffs_what_was_written() {
        let mut spare = Vec::new();
        let mut f = Frame::<()>::default();
        f.copy_mut(size());
        f.ensure_twin(&mut spare);
        assert_eq!(f.written.range(), 0..0);
        f.write(100, &[1, 2]);
        f.write(10, &[3]);
        assert_eq!(f.written.range(), 10..102);
        // Another processor's diff lands on the copy and the twin alike,
        // so it stays out of this processor's diff.
        let mut other = PageBuf::zeroed(size());
        other.write(120, &[9; 4]);
        f.apply(&Diff::between(&PageBuf::zeroed(size()), &other), size());
        let diff = f
            .close_twin(&mut spare, |twin, copy, written| {
                Diff::between_in(twin, copy, written)
            })
            .expect("dirty");
        let runs: Vec<_> = diff.runs().collect();
        assert_eq!(runs, [(10, &[3][..]), (100, &[1, 2][..])]);
        assert_eq!(f.copy.as_ref().unwrap().as_bytes()[120], 9);

        // The next interval's range starts empty.
        f.ensure_twin(&mut spare);
        assert_eq!(f.written.range(), 0..0);
        f.write(127, &[4]);
        assert_eq!(f.written.range(), 127..128);
    }

    #[test]
    #[should_panic(expected = "twinned page")]
    fn only_a_dirty_page_is_written() {
        let mut e = Frame::<()>::default();
        e.copy_mut(size());
        e.write(0, &[1]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_written_range_fits_in_the_frame_padding() {
        // Two page buffers, the pending chain's two indices and the
        // validity bit take 41 bytes; the range's two `u16`s fit in what
        // padding leaves of 48.
        assert_eq!(std::mem::size_of::<Frame<crate::Pending>>(), 48);
    }

    #[test]
    #[should_panic(expected = "resident copy")]
    fn twin_requires_copy() {
        let mut e = Frame::<()>::default();
        e.ensure_twin(&mut Vec::new());
    }

    #[test]
    fn pending_tracks_notices() {
        let mut e = Frame::<Vec<IntervalId>>::default();
        assert!(e.ext.is_empty());
        e.ext.push(IntervalId::new(ProcId::new(1), 3));
        assert_eq!(e.ext.len(), 1);
    }
}
