//! The message codec reserves memory for the items a frame carries, not
//! for the item count its header claims: a peer's 5-byte frame must not
//! cost the decoder more than a few bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use minshare::wire::Message;
use minshare_crypto::QrGroup;

/// The system allocator, recording the largest single request.
struct LargestAllocation;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

#[test]
fn a_header_claiming_four_billion_items_allocates_no_more_than_the_frame() {
    let group = QrGroup::well_known(768).expect("group");
    // Codewords, codeword pairs, payload pairs.
    for tag in [1u8, 2, 3] {
        let frame = [tag, 0xff, 0xff, 0xff, 0xff];
        LARGEST.store(0, Ordering::Relaxed);
        assert!(Message::decode(&frame, &group).is_err());
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(largest < 4096, "tag {tag}: one {largest}-byte allocation");
    }
}
