//! Page-based shared address space, twins and diffs.
//!
//! Software DSMs manage consistency at the granularity of virtual-memory
//! pages. Multiple-writer protocols (Munin's write-shared protocol, lazy
//! release consistency) let several processors write *different parts of the
//! same page* concurrently and reconcile the copies afterwards with *diffs*:
//! before the first write of an interval a processor copies the page (the
//! *twin*), and at reconciliation time it compares the working page against
//! the twin to produce a run-length encoding of the modified bytes.
//!
//! This crate provides that machinery, free of any protocol logic:
//!
//! * [`AddrSpace`] — maps flat addresses to `(page, offset)` under a
//!   configurable power-of-two [`PageSize`];
//! * [`PageBuf`] — one page's bytes, with typed accessors;
//! * [`Diff`] — run-length-encoded page deltas ([`Diff::between`],
//!   [`Diff::apply_to`]) with an on-the-wire size model. A diff is one
//!   buffer holding its runs in their wire layout (offset, length, bytes
//!   per run), so its encoded size is that buffer's length plus a fixed
//!   header and encoding it is one copy;
//! * [`DiffLog`] — many diffs kept in the same layout in buffers a log
//!   reuses, each read back as a borrowed [`DiffView`];
//! * [`Memory`] — a flat, sequentially-consistent memory used for page homes
//!   and as the correctness oracle in the simulator.
//!
//! # Example
//!
//! ```
//! use lrc_pagemem::{Diff, PageBuf, PageSize};
//!
//! let size = PageSize::new(1024)?;
//! let twin = PageBuf::zeroed(size);
//! let mut page = twin.clone();
//! page.write(100, &[1, 2, 3]);
//! page.write(512, &[9]);
//!
//! let diff = Diff::between(&twin, &page);
//! assert_eq!(diff.run_count(), 2);
//! assert_eq!(diff.modified_bytes(), 4);
//!
//! let mut other = PageBuf::zeroed(size);
//! diff.apply_to(&mut other);
//! assert_eq!(other.as_bytes(), page.as_bytes());
//! # Ok::<(), lrc_pagemem::PageSizeError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod addr;
mod diff;
mod memory;
mod page;

pub use addr::{AddrSpace, PageId, PageSize, PageSizeError, Segment};
pub use diff::{Diff, DiffLog, DiffRun, DiffSpan, DiffView, DIFF_HEADER_BYTES, RUN_HEADER_BYTES};
pub use memory::Memory;
pub use page::PageBuf;
