//! The clippy half of the contract checks itself: rules D1–D3 and O1
//! live in `crates/clippy.toml` as `disallowed-types` and
//! `disallowed-methods`, and every fixture below must trip its rule.
//! Each carries an `#[expect]`, so if the config stops flagging it the
//! expectation goes unfulfilled and `cargo clippy -- -D warnings`
//! fails. Under plain `cargo test` the fixtures simply run.

// ---------------------------------------------------------------- D1 --

#[test]
#[expect(clippy::disallowed_types, reason = "fixture: D1 must fire")]
fn d1_hashmap() {
    use std::collections::HashMap;
    let m: HashMap<u32, u32> = HashMap::new();
    assert!(m.is_empty());
}

#[test]
#[expect(clippy::disallowed_types, reason = "fixture: D1 must fire")]
fn d1_hashset() {
    assert!(std::collections::HashSet::<u8>::new().is_empty());
}

/// A `pub use … as` alias, as a crate could re-export it. The lexer saw
/// only the re-export line; name resolution sees every use.
mod aliased {
    #[expect(clippy::disallowed_types, reason = "fixture: D1 must fire")]
    pub use std::collections::HashMap as ObsMap;
}

#[test]
#[expect(clippy::disallowed_types, reason = "fixture: D1 must fire")]
fn d1_hashmap_through_a_reexported_alias() {
    let m: aliased::ObsMap<u8, u8> = aliased::ObsMap::new();
    assert!(m.is_empty());
}

// ---------------------------------------------------------------- D2 --

#[test]
#[expect(clippy::disallowed_types, reason = "fixture: D2 must fire")]
fn d2_instant() {
    let t = std::time::Instant::now();
    let _ = t.elapsed();
}

#[test]
#[expect(clippy::disallowed_types, reason = "fixture: D2 must fire")]
fn d2_system_time() {
    let _ = std::time::SystemTime::now();
}

// ---------------------------------------------------------------- D3 --

#[test]
#[expect(clippy::disallowed_methods, reason = "fixture: D3 must fire")]
fn d3_spawn() {
    std::thread::spawn(|| {}).join().unwrap();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "fixture: D3 must fire")]
fn d3_scope() {
    std::thread::scope(|_| {});
}

#[test]
#[expect(clippy::disallowed_methods, reason = "fixture: D3 must fire")]
fn d3_spawn_through_a_grouped_use() {
    use std::thread::{spawn, yield_now};
    spawn(yield_now).join().unwrap();
}

#[test]
#[expect(clippy::disallowed_types, reason = "fixture: D3 must fire")]
fn d3_builder() {
    let _ = std::thread::Builder::new();
}

#[test]
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "fixture: D3 must fire"
)]
fn d3_builder_spawn() {
    let handle = std::thread::Builder::new().spawn(|| {}).unwrap();
    handle.join().unwrap();
}

#[test]
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "fixture: D3 must fire"
)]
fn d3_builder_spawn_scoped() {
    std::thread::scope(|s| {
        let b = std::thread::Builder::new();
        b.spawn_scoped(s, || {}).unwrap();
    });
}

// ---------------------------------------------------------------- O1 --

#[test]
#[expect(clippy::disallowed_methods, reason = "fixture: O1 must fire")]
fn o1_capture_metrics() {
    let _ = lazydp_obs::snapshot::capture_metrics();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "fixture: O1 must fire")]
fn o1_take_trace_events() {
    let _ = lazydp_obs::trace::take_trace_events();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "fixture: O1 must fire")]
fn o1_obs_read() {
    let c = lazydp_obs::CacheCounters::new();
    assert_eq!(c.obs_read().hits, 0);
}
