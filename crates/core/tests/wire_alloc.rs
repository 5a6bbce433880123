//! The wire decoder sizes its allocations by the bytes a peer sent, not
//! by the counts the peer declares: a submit whose circuit claims
//! `u32::MAX` gates over a 10-byte body fails as truncated without
//! reserving room for those gates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use revmatch::read_client_frame;

thread_local! {
    /// The largest allocation this thread has asked for since the last
    /// reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request.
struct Largest;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the bookkeeping only touches a thread-local `Cell` that never
// allocates or runs a destructor.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

#[test]
fn huge_gate_count_fails_as_truncated_without_a_large_allocation() {
    let mut payload = vec![0x01]; // submit
    payload.extend(9u64.to_le_bytes()); // client id
    payload.push(0); // no seed
    payload.push(1); // identify
    payload.push(5); // c1: 5 lines ...
    payload.extend(u32::MAX.to_le_bytes()); // ... and u32::MAX gates
    payload.extend([0u8; 10]);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend(&payload);

    LARGEST.set(0);
    let decoded = read_client_frame(&mut frame.as_slice());
    let largest = LARGEST.get();
    let err = decoded.expect_err("the gates are not there");
    assert_eq!(err.to_string(), "malformed frame: truncated frame");
    assert!(
        largest <= 1024,
        "decoding a {}-byte frame allocated {largest} bytes at once",
        frame.len()
    );
}
