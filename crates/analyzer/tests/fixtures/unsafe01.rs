// UNSAFE01 fixture: `unsafe` only in crates/bignum/src/ifma.rs.

fn bad_block(p: *const u64) -> u64 {
    // POSITIVE: an unsafe block.
    unsafe { *p }
}

// POSITIVE: an unsafe fn.
unsafe fn bad_fn() {}

struct Handle(*mut u8);
// POSITIVE: an unsafe impl.
unsafe impl Send for Handle {}

#[cfg(test)]
mod tests {
    #[test]
    fn bad_in_test_code() {
        // POSITIVE: test code is no exemption.
        let _ = unsafe { super::bad_fn() };
    }
}

// NEGATIVE from here on: lint names, comments and strings.
#![forbid(unsafe_code)]
#[allow(unsafe_code)]
mod kernel {}
fn clean() -> &'static str {
    // unsafe { in a comment }
    "unsafe { in a string }"
}
