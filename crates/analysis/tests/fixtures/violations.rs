//! Negative-test fixture: every construct below must be flagged when this
//! file is checked under the path `crates/engine/src/fixture.rs`. The
//! expected (line, rule) pairs live in `tests/fixtures.rs`; keep them in
//! sync when editing. This directory is excluded from discovery, so the
//! real lint run never sees this file.
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub fn bad_unsafe(p: *const u8) -> u8 {
    unsafe { *p }
}

pub fn bad_arch() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

pub fn bad_ordering(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

pub fn bad_unwrap(v: Option<u8>) -> u8 {
    v.unwrap()
}

pub fn bad_panic() {
    panic!("boom");
}

pub fn bad_clock() -> Instant {
    Instant::now()
}

pub fn bad_map() -> HashMap<u32, u32> {
    HashMap::new()
}

pub fn bad_env() -> bool {
    std::env::var_os("FIXTURE_KNOB").is_some()
}
