use std::iter;

use lrc_pagemem::PageId;
use lrc_vclock::IntervalId;

use crate::WriteNotice;

/// The end of a chain of slots.
const NIL: u32 = u32::MAX;

/// The lazy protocol's per-page state ([`Frame::ext`](crate::Frame)): the
/// noticed-but-unapplied intervals that modified the page, in arrival
/// order. A valid frame has none; pages never cached keep accumulating
/// notices so a cold miss knows the page's full known write history.
///
/// The intervals are a chain of slots in the processor's notice list,
/// of which the frame keeps only the first and last index, so they mean
/// something only together with the list of the shard the frame is in.
/// Each slot keeps the notice's handle into its creator's log
/// (`WriteNotice::entry`), so a miss plans from the chain with no
/// search. A `Pending` is 8 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pending {
    head: u32,
    tail: u32,
}

impl Default for Pending {
    fn default() -> Self {
        Pending {
            head: NIL,
            tail: NIL,
        }
    }
}

impl Pending {
    /// True if no notice is pending.
    pub(crate) fn is_empty(self) -> bool {
        self.head == NIL
    }
}

/// One noticed interval, the handle of its diff of the chain's page, and
/// the next slot of the chain: 16 bytes. (Reading the seq back from the
/// handle's header would make it 12, at one more indirection per
/// notice read.)
#[derive(Clone, Copy, Debug)]
struct Slot {
    interval: IntervalId,
    entry: u32,
    next: u32,
}

/// One processor's pending notices for every page, in one list of slots
/// kept in its shard: each page's [`Pending`] chains its slots in arrival
/// order, and freed slots chain from `free` and are taken first. So
/// delivering a notice allocates only while more notices are pending than
/// ever were, and applying a page's notices frees them in constant time.
///
/// A slot is 16 bytes: a [`WriteNotice`] without its page, which the
/// chain implies, and the link to the next slot. The handles stay valid
/// for the era they were noticed in: a collection resets every list
/// ([`NoticeList::reset`]) with the store.
#[derive(Debug)]
pub(crate) struct NoticeList {
    slots: Vec<Slot>,
    /// The first free slot; each free slot's `next` is the next one.
    free: u32,
}

impl NoticeList {
    /// An empty list with room for `slots` notices.
    pub(crate) fn with_capacity(slots: usize) -> Self {
        NoticeList {
            slots: Vec::with_capacity(slots),
            free: NIL,
        }
    }

    /// Appends `notice` to the chain of `pending`, the chain of the
    /// notice's page.
    pub(crate) fn push(&mut self, pending: &mut Pending, notice: &WriteNotice) {
        let slot = Slot {
            interval: notice.interval,
            entry: notice.entry,
            next: NIL,
        };
        let at = if self.free == NIL {
            self.slots.push(slot);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending notices")
        } else {
            let at = self.free;
            self.free = self.slots[at as usize].next;
            self.slots[at as usize] = slot;
            at
        };
        if pending.is_empty() {
            pending.head = at;
        } else {
            self.slots[pending.tail as usize].next = at;
        }
        pending.tail = at;
    }

    /// The notices of `pending`, the chain of `page`, in arrival order.
    pub(crate) fn iter(
        &self,
        pending: Pending,
        page: PageId,
    ) -> impl Iterator<Item = WriteNotice> + '_ {
        let mut at = pending.head;
        iter::from_fn(move || {
            let slot = self.slots.get(at as usize)?;
            at = slot.next;
            Some(WriteNotice {
                interval: slot.interval,
                page,
                entry: slot.entry,
            })
        })
    }

    /// Empties `pending`, freeing its slots.
    pub(crate) fn clear(&mut self, pending: &mut Pending) {
        if !pending.is_empty() {
            self.slots[pending.tail as usize].next = self.free;
            self.free = pending.head;
            *pending = Pending::default();
        }
    }

    /// Frees every slot, keeping the buffer: for when every frame of the
    /// shard has been given an empty [`Pending`].
    pub(crate) fn reset(&mut self) {
        self.slots.clear();
        self.free = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrc_vclock::ProcId;

    /// A notice of interval `seq` whose handle is `seq + 100`.
    fn iv(seq: u32) -> WriteNotice {
        WriteNotice {
            interval: IntervalId::new(ProcId::new(1), seq),
            page: PageId::new(0),
            entry: seq + 100,
        }
    }

    fn listed(list: &NoticeList, pending: Pending) -> Vec<u32> {
        list.iter(pending, PageId::new(0))
            .map(|n| {
                assert_eq!(n.entry, n.interval.seq() + 100, "the handle travels");
                n.interval.seq()
            })
            .collect()
    }

    #[test]
    fn a_slot_is_a_notice_without_its_page_and_a_link() {
        assert_eq!(std::mem::size_of::<WriteNotice>(), 16);
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        assert_eq!(std::mem::size_of::<Pending>(), 8);
    }

    #[test]
    fn chains_keep_arrival_order_and_reuse_freed_slots() {
        let mut list = NoticeList::with_capacity(0);
        let (mut a, mut b) = (Pending::default(), Pending::default());
        assert!(a.is_empty() && listed(&list, a).is_empty());
        for seq in 1..=3 {
            list.push(&mut a, &iv(seq));
            list.push(&mut b, &iv(10 + seq));
        }
        assert_eq!(listed(&list, a), [1, 2, 3]);
        assert_eq!(listed(&list, b), [11, 12, 13]);

        // A cleared chain's slots go to the next notices, of any page,
        // and the other chains keep theirs.
        list.clear(&mut a);
        assert!(a.is_empty() && listed(&list, a).is_empty());
        list.push(&mut b, &iv(14));
        list.push(&mut a, &iv(4));
        assert_eq!(listed(&list, a), [4]);
        assert_eq!(listed(&list, b), [11, 12, 13, 14]);
        assert_eq!(list.slots.len(), 6, "freed slots were taken first");
        list.clear(&mut a);
        list.clear(&mut a);
        list.push(&mut a, &iv(5));
        assert_eq!(listed(&list, a), [5]);
        assert_eq!(listed(&list, b), [11, 12, 13, 14]);

        list.reset();
        let mut c = Pending::default();
        list.push(&mut c, &iv(6));
        assert_eq!(listed(&list, c), [6]);
        assert_eq!(list.slots.len(), 1);
    }
}
