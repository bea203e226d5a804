//! The test profile runs optimised code (`[profile.test] opt-level = 1`)
//! but must keep the checks that make it a test build: these fail if a
//! profile edit turns off debug assertions or overflow checks.

use std::hint::black_box;

#[test]
fn debug_assertions_are_on_under_test() {
    assert!(black_box(cfg!(debug_assertions)));
}

#[test]
#[should_panic(expected = "overflow")]
fn integer_overflow_panics_under_test() {
    let _ = black_box(black_box(u8::MAX) + 1);
}
