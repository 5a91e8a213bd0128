//! Positive-test fixture: the same constructs as `violations.rs`, each
//! carrying the justification the rules require — checked under the path
//! `crates/engine/src/fixture.rs`, this file must produce zero diagnostics.
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub fn good_unsafe(p: *const u8) -> u8 {
    // SAFETY: fixture — the caller guarantees `p` is valid and aligned.
    unsafe { *p }
}

pub fn good_ordering(c: &AtomicU64) -> u64 {
    // ORDERING: Relaxed — fixture counter, orders nothing.
    c.load(Ordering::Relaxed)
}

pub fn good_unwrap(v: Option<u8>) -> u8 {
    v.unwrap() // PANIC: fixture — caller contract guarantees Some.
}

pub fn good_panic() {
    // PANIC: fixture — unreachable by construction.
    panic!("boom");
}

pub fn good_clock() -> Instant {
    // NONDET: fixture — reporting only, never feeds a decision.
    Instant::now()
}

pub fn good_env() -> bool {
    // NONDET: fixture — resolved once at start-up and recorded in the report.
    std::env::var_os("FIXTURE_KNOB").is_some()
}

// NONDET: fixture — lookup-only map in the signature, never iterated.
pub fn good_map() -> HashMap<u32, u32> {
    HashMap::new() // NONDET: fixture — lookup-only.
}

#[cfg(test)]
mod tests {
    // Test code is exempt from the panic/ordering rules entirely.
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn exempt() {
        let c = AtomicU64::new(0);
        assert_eq!(c.load(Ordering::SeqCst), 0);
        Some(1u8).unwrap();
    }
}
