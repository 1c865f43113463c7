//! The wire-size model.
//!
//! The paper reports data volumes without publishing exact header formats,
//! so this module fixes a concrete, conservative model, used consistently by
//! every protocol so comparisons are fair:
//!
//! * every message pays a fixed transport header;
//! * a write notice names a page and its creating interval;
//! * vector clocks cost four bytes per processor;
//! * diffs and pages are costed by [`lrc_pagemem`]'s encodings.

/// Fixed per-message transport header (addressing, type, sequence).
pub const MSG_HEADER_BYTES: u64 = 32;

/// Per-interval header of a batched write-notice list: processor (2),
/// sequence (4), page count (2), timestamp entry (4).
pub(crate) const NOTICE_INTERVAL_HEADER_BYTES: u64 = 12;

/// Per-page entry of a batched write-notice list (a page id).
pub(crate) const NOTICE_PAGE_BYTES: u64 = 4;

/// Wire size of a batched write-notice list covering `intervals` distinct
/// intervals and `pages` page entries in total — the encoding a lock grant
/// or barrier message piggybacks (one header per interval, then its page
/// ids), as in TreadMarks' interval records.
pub fn notice_batch_bytes(intervals: usize, pages: usize) -> u64 {
    intervals as u64 * NOTICE_INTERVAL_HEADER_BYTES + pages as u64 * NOTICE_PAGE_BYTES
}

/// Header of an eager invalidation message (epoch tag, count).
pub(crate) const INVALIDATION_HEADER_BYTES: u64 = 8;

/// Wire size of an eager invalidation notice naming `pages` pages.
pub fn invalidation_bytes(pages: usize) -> u64 {
    INVALIDATION_HEADER_BYTES + pages as u64 * NOTICE_PAGE_BYTES
}

/// One entry of a diff-request list: interval (4) + page id (4).
pub const DIFF_REQUEST_ENTRY_BYTES: u64 = 8;

/// A lock identifier in a request/forward/grant payload.
pub const LOCK_ID_BYTES: u64 = 8;

/// A barrier identifier in an arrival/exit payload.
pub const BARRIER_ID_BYTES: u64 = 8;

/// A page identifier in a request payload.
pub const PAGE_ID_BYTES: u64 = 4;

/// Wire size of a vector clock for `n_procs` processors.
pub fn vc_bytes(n_procs: usize) -> u64 {
    4 * n_procs as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_bytes_scales_with_procs() {
        assert_eq!(vc_bytes(0), 0);
        assert_eq!(vc_bytes(16), 64);
    }

    #[test]
    fn notice_batches_charge_headers_and_pages() {
        assert_eq!(notice_batch_bytes(0, 0), 0);
        assert_eq!(notice_batch_bytes(2, 5), 2 * 12 + 5 * 4);
        assert_eq!(invalidation_bytes(3), 8 + 12);
    }
}
