//! Clean fixture: every rule's favourite false-positive traps, zero
//! diagnostics expected. Mentioning std::sync::Mutex or nws_model in a
//! doc comment is fine — the lexer files comments and strings away.

use nws_sync::{AtomicUsize, Ordering};

/// Docs may discuss `parking_lot`, `SeqCst`, and `std::sync::atomic`
/// freely; only code tokens count.
pub fn counter() -> usize {
    let s = "std::sync::atomic::AtomicUsize::new(0) and nws_fault";
    let r = r#"core::sync::atomic " nws_model SeqCst "#;
    let r2 = r##"raw with hashes: "# std::sync::Mutex "##;
    // line comment trap: std::thread::yield_now, SeqCst, unsafe { }
    /* block comment trap: parking_lot::Mutex, nws_model,
       /* nested */ core::hint::spin_loop */
    let lifetime_not_char: &'static str = "y";
    let ch = ':';
    let c = AtomicUsize::new(s.len() + r.len() + r2.len());
    c.load(Ordering::Relaxed) + lifetime_not_char.len() + (ch as usize)
}

/// Zeroes a byte.
///
/// # Safety
/// `p` must be valid for writes of one byte.
pub unsafe fn zero(p: *mut u8) {
    let _continued = b"a byte string \
        continued on the next line";
    // SAFETY: the function's own contract guarantees validity.
    unsafe { *p = 0 }
}

pub fn deref(p: *const u8) -> u8 {
    let _continued = "a string \
        continued on the next line";
    // SAFETY: the pointer is non-null per the caller's check.
    unsafe { *p }
}

pub struct Token(());

// SAFETY: Token carries no shared state; attribute lines between this
// comment and the item are skipped by the audit.
#[allow(dead_code)]
unsafe impl Send for Token {}

#[cfg(test)]
mod tests {
    #[test]
    fn seqcst_in_tests_is_outside_the_budget() {
        let _ = super::counter();
        let _ = nws_sync::Ordering::SeqCst;
    }
}
