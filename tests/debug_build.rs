//! The dev profile raises `opt-level` to make tier-1 fast, never to drop a
//! check: a test binary built in it keeps debug assertions (and with them
//! `CGraph::validate_derived` and every `debug_assert!`) and overflow
//! checks. A release test binary (under `target/release`) has neither, by
//! design, and asserts nothing here.

use std::hint::black_box;
use std::panic::catch_unwind;

/// Whether this test binary was built in the dev profile: cargo puts it
/// under `target/debug`.
fn dev_profile() -> bool {
    let exe = std::env::current_exe().expect("the test binary's path");
    exe.ancestors()
        .any(|dir| dir.file_name() == Some("debug".as_ref()))
}

#[test]
fn the_dev_profile_keeps_debug_assertions_and_overflow_checks() {
    if !dev_profile() {
        return;
    }
    let asserted = catch_unwind(|| debug_assert!(black_box(false)));
    assert!(
        asserted.is_err(),
        "a dev test build without debug assertions"
    );
    let overflowed = catch_unwind(|| black_box(u8::MAX) + black_box(1));
    assert!(
        overflowed.is_err(),
        "a dev test build without overflow checks"
    );
}
