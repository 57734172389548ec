//! Deterministic, seeded fault injection for the LazyDP stack.
//!
//! A long DP training job that dies on a transient spill-device error
//! loses work that has already spent irrevocable privacy budget. This
//! crate is how the workspace *proves* it survives such failures: the
//! storage engine (`lazydp_store`) and the checkpoint path
//! (`lazydp_core`) consult a [`FaultPlan`] at well-known injection
//! **sites**, and the plan decides — as a pure function of
//! `(seed, site, operation ordinal)` — whether that operation fails,
//! and how. The same plan therefore reproduces the identical failure
//! sequence on every run, which is what makes the kill-and-resume
//! recovery harness (`tests/crash_recovery.rs`) and the CI fault leg
//! deterministic.
//!
//! # Fault kinds
//!
//! * [`FaultKind::Transient`] — the operation fails once; the caller's
//!   bounded retry (see [`with_retry`]) re-executes it under a new
//!   ordinal, which succeeds unless the plan fails that one too.
//! * [`FaultKind::Persistent`] — with an `@N` trigger, the site fails at
//!   ordinal `N` **and every ordinal after it**: the device is gone.
//!   Retries exhaust and the storage engine degrades to its resident
//!   backend (bitwise-identical by the `EmbeddingStorage` contract).
//! * [`FaultKind::Corrupt`] — at a write site, the payload is corrupted
//!   *after* its checksum is computed, simulating a torn page the next
//!   read must detect by checksum rather than silently train on.
//! * [`FaultKind::Kill`] — the process "crashes": a panic with the
//!   distinctive [`InjectedKill`] payload unwinds the training loop, to
//!   be caught by a recovery harness that then resumes from the
//!   last-good checkpoint.
//!
//! # Plans and ordinals belong to the owner
//!
//! Each injecting object (a `PageFile`, a `CheckpointStore`, an
//! optimizer) captures its plan once, at construction, as a [`Faults`]
//! handle: the plan of the innermost [`scoped`] call on the constructing
//! thread, or else the `LAZYDP_FAULTS` plan (read once per process).
//! Every site of that object consults its own handle, on whatever thread
//! the operation runs, so no plan set up for one test or experiment
//! reaches an object another one built. The object also counts its
//! **own** operations and passes the count as the ordinal: two runs
//! that construct the same objects and perform the same schedule see
//! the same `(site, ordinal)` stream. (Concurrent accessors of one
//! object interleave their schedules, which can shift which operation a
//! *rate* rule hits; values stay exact because every injected failure
//! is retried or recovered, never absorbed into row data.)
//!
//! # The `LAZYDP_FAULTS` environment knob
//!
//! ```text
//! LAZYDP_FAULTS=<seed>:<rule>,<rule>,...
//!     rule := <site>@<ordinal>=<kind>      fire at exactly that ordinal
//!           | <site>*<rate>=<kind>         fire pseudo-randomly at that rate
//!     site := page.read | page.write | ckpt.write | ckpt.sync
//!           | ckpt.rename | step | flush | checkpoint
//!     kind := transient | persistent | corrupt | kill
//! ```
//!
//! Example: `LAZYDP_FAULTS=7:page.read*0.01=transient,page.write*0.01=transient`
//! makes ~1% of spill-file I/O fail transiently — the whole test suite
//! must still pass bitwise (CI's fault leg). Unset, empty, or `off`
//! disables injection. Objects built inside [`scoped`] follow its plan
//! instead, for their whole lifetime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod checksum;

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

/// A named injection point. Every site is owned by one layer of the
/// stack; the owner counts its own operations and passes the ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Site {
    /// `page.read` — a spill-file page read (`PageFile::read_page`).
    PageRead,
    /// `page.write` — a spill-file page write (`PageFile::write_page`).
    PageWrite,
    /// `ckpt.write` — writing checkpoint bytes to the temp file.
    CkptWrite,
    /// `ckpt.sync` — `sync_all` on the checkpoint temp file.
    CkptSync,
    /// `ckpt.rename` — the atomic rename publishing a checkpoint.
    CkptRename,
    /// `step` — a kill point inside the optimizer step, after the dense
    /// update but before the sparse updates land (an overlapped
    /// lookahead flush has already run by then, an inline one has not).
    MidStep,
    /// `flush` — a kill point at the head of LazyDP's per-step lookahead
    /// flush (table 0), wherever it runs: on the overlap worker, or
    /// inline in the table stage on a single-width executor.
    MidFlush,
    /// `checkpoint` — a kill point between writing a checkpoint's temp
    /// file and publishing it (rename + manifest update).
    MidCheckpoint,
}

/// All sites, for spec parsing and diagnostics.
pub const SITES: [Site; 8] = [
    Site::PageRead,
    Site::PageWrite,
    Site::CkptWrite,
    Site::CkptSync,
    Site::CkptRename,
    Site::MidStep,
    Site::MidFlush,
    Site::MidCheckpoint,
];

impl Site {
    /// The spec-string spelling of the site.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Site::PageRead => "page.read",
            Site::PageWrite => "page.write",
            Site::CkptWrite => "ckpt.write",
            Site::CkptSync => "ckpt.sync",
            Site::CkptRename => "ckpt.rename",
            Site::MidStep => "step",
            Site::MidFlush => "flush",
            Site::MidCheckpoint => "checkpoint",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        SITES.iter().copied().find(|site| site.name() == s)
    }

    /// A per-site salt decorrelating rate decisions across sites.
    fn salt(self) -> u64 {
        match self {
            Site::PageRead => 0x9e37_79b9_7f4a_7c15,
            Site::PageWrite => 0xbf58_476d_1ce4_e5b9,
            Site::CkptWrite => 0x94d0_49bb_1331_11eb,
            Site::CkptSync => 0x2545_f491_4f6c_dd1d,
            Site::CkptRename => 0xd6e8_feb8_6659_fd93,
            Site::MidStep => 0xa24b_aed4_963e_e407,
            Site::MidFlush => 0x9fb2_1c65_1e98_df25,
            Site::MidCheckpoint => 0x3c79_ac49_2ba7_b653,
        }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an injected fault does to the operation it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail this one operation; a retry (new ordinal) succeeds.
    Transient,
    /// Fail this and (with an `@N` trigger) every later operation at
    /// the site — the device is gone for good.
    Persistent,
    /// Corrupt the payload after its checksum is computed (write sites;
    /// elsewhere it degenerates to a transient failure).
    Corrupt,
    /// Panic with an [`InjectedKill`] payload — the in-process stand-in
    /// for `kill -9` that a recovery harness catches.
    Kill,
}

impl FaultKind {
    fn from_name(s: &str) -> Option<Self> {
        match s {
            "transient" => Some(Self::Transient),
            "persistent" => Some(Self::Persistent),
            "corrupt" => Some(Self::Corrupt),
            "kill" => Some(Self::Kill),
            _ => None,
        }
    }
}

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Exactly ordinal `n` (every ordinal `>= n` for `Persistent`).
    At(u64),
    /// Pseudo-randomly with this probability per operation, decided by
    /// `hash(seed, site, ordinal)` — deterministic for a fixed plan.
    Rate(f64),
}

/// One parsed rule: fire `kind` at `site` when `trigger` matches.
#[derive(Debug, Clone, PartialEq)]
struct FaultRule {
    site: Site,
    trigger: Trigger,
    kind: FaultKind,
}

/// A deterministic failure schedule: a seed plus a list of rules.
///
/// Build one programmatically with [`FaultPlan::new`] + [`FaultPlan::rule`],
/// or parse the `LAZYDP_FAULTS` spec with [`FaultPlan::parse`]. Hand it
/// to the objects built inside [`scoped`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given rate-decision seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds "fire `kind` at exactly ordinal `n` of `site`" (every
    /// ordinal `>= n` when `kind` is [`FaultKind::Persistent`]).
    #[must_use]
    pub fn rule(mut self, site: Site, n: u64, kind: FaultKind) -> Self {
        self.rules.push(FaultRule {
            site,
            trigger: Trigger::At(n),
            kind,
        });
        self
    }

    /// Adds "fire `kind` at `site` with probability `rate` per
    /// operation" (decided deterministically from the plan seed).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    #[must_use]
    pub fn rate_rule(mut self, site: Site, rate: f64, kind: FaultKind) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0,1]");
        self.rules.push(FaultRule {
            site,
            trigger: Trigger::Rate(rate),
            kind,
        });
        self
    }

    /// True when the plan has no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parses the `LAZYDP_FAULTS` spec: `<seed>:<rule>,<rule>,...` (see
    /// the crate docs for the rule grammar). An empty rule list is
    /// valid and injects nothing.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed component.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed_s, rules_s) = spec
            .split_once(':')
            .ok_or_else(|| format!("missing ':' in fault spec {spec:?}"))?;
        let seed = seed_s
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("bad fault seed {seed_s:?}: {e}"))?;
        let mut plan = FaultPlan::new(seed);
        for rule in rules_s.split(',').map(str::trim).filter(|r| !r.is_empty()) {
            let (lhs, kind_s) = rule
                .split_once('=')
                .ok_or_else(|| format!("missing '=' in fault rule {rule:?}"))?;
            let kind = FaultKind::from_name(kind_s.trim())
                .ok_or_else(|| format!("unknown fault kind {kind_s:?}"))?;
            let (site_s, trigger) = if let Some((s, n)) = lhs.split_once('@') {
                let n = n
                    .trim()
                    .parse::<u64>()
                    .map_err(|e| format!("bad ordinal {n:?}: {e}"))?;
                (s, Trigger::At(n))
            } else if let Some((s, p)) = lhs.split_once('*') {
                let p = p
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| format!("bad rate {p:?}: {e}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("rate {p} out of [0,1]"));
                }
                (s, Trigger::Rate(p))
            } else {
                return Err(format!("rule {rule:?} needs '@<ordinal>' or '*<rate>'"));
            };
            let site = Site::from_name(site_s.trim())
                .ok_or_else(|| format!("unknown fault site {site_s:?}"))?;
            plan.rules.push(FaultRule {
                site,
                trigger,
                kind,
            });
        }
        Ok(plan)
    }

    /// Whether (and how) operation `ordinal` at `site` fails under this
    /// plan — a pure function, so a fixed plan yields a fixed failure
    /// sequence. First matching rule wins.
    #[must_use]
    pub fn decide(&self, site: Site, ordinal: u64) -> Option<FaultKind> {
        self.rules.iter().find_map(|r| {
            if r.site != site {
                return None;
            }
            let hit = match r.trigger {
                Trigger::At(n) => {
                    if r.kind == FaultKind::Persistent {
                        ordinal >= n
                    } else {
                        ordinal == n
                    }
                }
                Trigger::Rate(p) => unit_hash(self.seed, site, ordinal) < p,
            };
            hit.then_some(r.kind)
        })
    }
}

/// splitmix64-style mix of `(seed, site, ordinal)` into `[0, 1)`.
fn unit_hash(seed: u64, site: Site, ordinal: u64) -> f64 {
    let mut z = seed ^ site.salt() ^ ordinal.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Top 53 bits → an exactly representable f64 in [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

// ---------- owner-captured plans ------------------------------------------

/// The plan one fault-injecting object follows, captured once when the
/// object is built ([`Faults::current`]) and consulted at every one of
/// its sites, on whatever thread the operation runs. Without a plan a
/// site costs one branch on this field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Faults(Option<Arc<FaultPlan>>);

thread_local! {
    /// The plan of the innermost [`scoped`] call on this thread.
    static SCOPED: RefCell<Option<Faults>> = const { RefCell::new(None) };
}

impl Faults {
    fn of(plan: FaultPlan) -> Self {
        Self((!plan.is_empty()).then(|| Arc::new(plan)))
    }

    /// The plan an object built here and now follows: the innermost
    /// [`scoped`] plan on this thread, or else `LAZYDP_FAULTS`.
    ///
    /// # Panics
    ///
    /// Panics when `LAZYDP_FAULTS` is set but does not parse: an injection
    /// plan must never be silently ignored (the CI leg depends on it).
    #[must_use]
    pub fn current() -> Self {
        SCOPED
            .with(|s| s.borrow().clone())
            .unwrap_or_else(|| env_plan().clone())
    }

    /// Whether operation `ordinal` at `site` fails under this plan; fired
    /// faults are counted in the `fault.injected` obs metric.
    #[must_use]
    pub fn decide(&self, site: Site, ordinal: u64) -> Option<FaultKind> {
        let kind = self.0.as_ref()?.decide(site, ordinal)?;
        lazydp_obs::metrics().fault.injected.incr();
        Some(kind)
    }

    /// A kill point: panics with an [`InjectedKill`] payload when the plan
    /// fires **any** kind at `(site, ordinal)` (kill sites have no payload
    /// to corrupt or retry, so every kind means "die here"). No-op
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics (by design) when the plan fires.
    pub fn point(&self, site: Site, ordinal: u64) {
        if self.decide(site, ordinal).is_some() {
            std::panic::panic_any(InjectedKill { site, ordinal });
        }
    }
}

/// The `LAZYDP_FAULTS` plan, read once per process.
fn env_plan() -> &'static Faults {
    static ENV: OnceLock<Faults> = OnceLock::new();
    ENV.get_or_init(|| match std::env::var("LAZYDP_FAULTS") {
        Ok(s) if !s.trim().is_empty() && s.trim() != "off" && s.trim() != "0" => {
            match FaultPlan::parse(&s) {
                Ok(p) => Faults::of(p),
                Err(e) => panic!("invalid LAZYDP_FAULTS: {e}"),
            }
        }
        _ => Faults::default(),
    })
}

/// Runs `f` with `plan` as the plan every fault-injecting object built
/// on this thread inside `f` captures (an empty plan injects nothing,
/// whatever `LAZYDP_FAULTS` says). Objects keep their plan after `f`
/// returns; objects built before, after, or on other threads are
/// untouched. Scopes nest, and the enclosing plan is restored when `f`
/// returns or unwinds.
pub fn scoped<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Faults>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| *s.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(SCOPED.with(|s| s.replace(Some(Faults::of(plan)))));
    f()
}

/// The panic payload of an injected kill — the in-process stand-in for
/// `kill -9`. Recovery harnesses downcast `catch_unwind`'s payload to
/// this type to tell an injected crash from a real bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedKill {
    /// The site that fired.
    pub site: Site,
    /// The operation ordinal that fired.
    pub ordinal: u64,
}

impl std::fmt::Display for InjectedKill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected kill at {}#{}", self.site, self.ordinal)
    }
}

/// Builds the `io::Error` representing an injected storage fault.
/// Transient faults map to [`std::io::ErrorKind::Interrupted`] —
/// the conventional "try again" kind — everything else to
/// [`std::io::ErrorKind::Other`].
#[must_use]
pub fn injected_io_error(kind: FaultKind, site: Site, ordinal: u64) -> std::io::Error {
    let ek = match kind {
        FaultKind::Transient => std::io::ErrorKind::Interrupted,
        _ => std::io::ErrorKind::Other,
    };
    std::io::Error::new(ek, format!("injected {kind:?} fault at {site}#{ordinal}"))
}

// ---------- bounded retry with deterministic backoff ----------------------

/// Retry attempts per operation (the first try plus three retries).
pub const MAX_ATTEMPTS: usize = 4;

/// Errors that [`with_retry`] may re-execute after.
pub trait Retryable {
    /// True when re-executing the failed operation could succeed
    /// (transient I/O); false when it provably cannot (corruption).
    fn retryable(&self) -> bool;
}

impl Retryable for std::io::Error {
    fn retryable(&self) -> bool {
        true
    }
}

/// Runs `op` up to [`MAX_ATTEMPTS`] times, backing off between attempts
/// by a doubling count of `yield_now` calls — deterministic work, no
/// clock (lint rule D2 keeps wall-clock reads out of training crates).
/// Retries and final give-ups are counted in the `fault.*` obs metrics.
///
/// # Errors
///
/// Returns the last error once attempts are exhausted, or the first
/// non-retryable error immediately.
pub fn with_retry<T, E: Retryable>(mut op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
    let mut backoff = 1u32;
    for attempt in 1..=MAX_ATTEMPTS {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.retryable() && attempt < MAX_ATTEMPTS => {
                lazydp_obs::metrics().fault.retries.incr();
                for _ in 0..backoff {
                    std::thread::yield_now();
                }
                backoff = backoff.saturating_mul(2);
            }
            Err(e) => {
                if e.retryable() {
                    lazydp_obs::metrics().fault.giveups.incr();
                }
                return Err(e);
            }
        }
    }
    unreachable!("loop returns on the last attempt")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let p = FaultPlan::parse("7:page.read@3=transient,page.write*0.5=corrupt,step@2=kill")
            .expect("parse");
        assert_eq!(p.seed, 7);
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.decide(Site::PageRead, 3), Some(FaultKind::Transient));
        assert_eq!(p.decide(Site::PageRead, 2), None);
        assert_eq!(p.decide(Site::PageRead, 4), None);
        assert_eq!(p.decide(Site::MidStep, 2), Some(FaultKind::Kill));
        assert_eq!(p.decide(Site::MidFlush, 2), None);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "no-colon",
            "x:page.read@1=transient",
            "1:page.read@1",
            "1:page.read=transient",
            "1:nowhere@1=transient",
            "1:page.read@1=explode",
            "1:page.read*1.5=transient",
            "1:page.read@x=transient",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn empty_rule_list_parses_and_injects_nothing() {
        let p = FaultPlan::parse("42:").expect("parse");
        assert!(p.is_empty());
        assert_eq!(p.decide(Site::PageRead, 0), None);
    }

    #[test]
    fn persistent_at_fails_every_later_ordinal() {
        let p = FaultPlan::new(1).rule(Site::PageWrite, 5, FaultKind::Persistent);
        assert_eq!(p.decide(Site::PageWrite, 4), None);
        for n in [5u64, 6, 100, u64::MAX] {
            assert_eq!(p.decide(Site::PageWrite, n), Some(FaultKind::Persistent));
        }
    }

    #[test]
    fn rate_decisions_are_deterministic_and_roughly_calibrated() {
        let p = FaultPlan::new(99).rate_rule(Site::PageRead, 0.25, FaultKind::Transient);
        let fire = |ord| p.decide(Site::PageRead, ord).is_some();
        let hits: usize = (0..10_000).filter(|&o| fire(o)).count();
        assert!(
            (2_000..3_000).contains(&hits),
            "rate 0.25 fired {hits}/10000"
        );
        // Pure function of (seed, site, ordinal): identical on re-query.
        for o in 0..200 {
            assert_eq!(fire(o), fire(o));
        }
        // Different sites decorrelate.
        assert_eq!(p.decide(Site::PageWrite, 0), None);
    }

    #[test]
    fn first_matching_rule_wins() {
        let p = FaultPlan::new(1)
            .rule(Site::PageRead, 2, FaultKind::Kill)
            .rate_rule(Site::PageRead, 1.0, FaultKind::Transient);
        assert_eq!(p.decide(Site::PageRead, 2), Some(FaultKind::Kill));
        assert_eq!(p.decide(Site::PageRead, 3), Some(FaultKind::Transient));
    }

    fn sync_plan() -> FaultPlan {
        FaultPlan::new(3).rule(Site::CkptSync, 1, FaultKind::Transient)
    }

    #[test]
    fn a_scoped_plan_never_reaches_other_threads_or_earlier_owners() {
        let before = Faults::current();
        let (inside, elsewhere) = scoped(sync_plan(), || {
            let elsewhere = std::thread::spawn(Faults::current).join().expect("join");
            (Faults::current(), elsewhere)
        });
        assert_eq!(inside.decide(Site::CkptSync, 1), Some(FaultKind::Transient));
        assert_eq!(inside.decide(Site::CkptSync, 0), None);
        for h in [before, elsewhere, Faults::current()] {
            assert_eq!(&h, env_plan(), "must follow LAZYDP_FAULTS");
        }
        // An empty scoped plan injects nothing, whatever the environment.
        assert_eq!(scoped(FaultPlan::new(0), Faults::current), Faults(None));
    }

    #[test]
    fn a_captured_plan_outlives_its_scope_and_crosses_threads() {
        let h = scoped(
            FaultPlan::new(0).rule(Site::MidFlush, 4, FaultKind::Kill),
            Faults::current,
        );
        let payload = std::thread::spawn(move || {
            h.point(Site::MidFlush, 3); // no-op
            h.point(Site::MidFlush, 4);
        })
        .join()
        .expect_err("the captured plan fires on another thread");
        let kill = payload
            .downcast_ref::<InjectedKill>()
            .expect("typed payload");
        assert_eq!(
            *kill,
            InjectedKill {
                site: Site::MidFlush,
                ordinal: 4
            }
        );
        assert_eq!(kill.to_string(), "injected kill at flush#4");
    }

    #[test]
    fn nested_scopes_restore_the_outer_plan_on_exit_and_unwind() {
        let inner = || FaultPlan::new(0).rule(Site::MidStep, 1, FaultKind::Kill);
        scoped(sync_plan(), || {
            let outer = Faults::current();
            let h = scoped(inner(), Faults::current);
            assert_eq!(h.decide(Site::MidStep, 1), Some(FaultKind::Kill));
            assert_eq!(Faults::current(), outer, "restored on exit");
            let unwound = std::panic::catch_unwind(|| {
                scoped(inner(), || Faults::current().point(Site::MidStep, 1));
            });
            assert!(unwound.is_err());
            assert_eq!(Faults::current(), outer, "restored on unwind");
        });
        assert_eq!(&Faults::current(), env_plan());
    }

    #[test]
    fn an_owner_built_outside_any_scope_follows_lazydp_faults() {
        // The environment is read once per process, so the check runs in
        // a child process of this test binary with a known plan.
        const SPEC: &str = "5:ckpt.rename@2=transient";
        if std::env::var("LAZYDP_FAULTS").as_deref() == Ok(SPEC) {
            let here = Faults::current();
            let there = std::thread::spawn(Faults::current).join().expect("join");
            for h in [here, there] {
                assert_eq!(h.decide(Site::CkptRename, 2), Some(FaultKind::Transient));
                assert_eq!(h.decide(Site::CkptRename, 1), None);
            }
            return;
        }
        let name = "tests::an_owner_built_outside_any_scope_follows_lazydp_faults";
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", name, "--test-threads=1"])
            .env("LAZYDP_FAULTS", SPEC)
            .output()
            .expect("spawn the child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}"
        );
    }

    #[test]
    fn with_retry_absorbs_transients_and_reports_giveups() {
        let mut failures_left = 2;
        let got = with_retry(|| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "x"))
            } else {
                Ok(41)
            }
        });
        assert_eq!(got.expect("two transients then success"), 41);

        let got: Result<(), _> = with_retry(|| Err(std::io::Error::other("gone")));
        assert!(got.is_err(), "persistent failure exhausts attempts");
    }

    #[test]
    fn injected_io_errors_carry_site_and_kind() {
        let e = injected_io_error(FaultKind::Transient, Site::PageRead, 9);
        assert_eq!(e.kind(), std::io::ErrorKind::Interrupted);
        assert!(e.to_string().contains("page.read#9"), "{e}");
        let e = injected_io_error(FaultKind::Persistent, Site::PageWrite, 0);
        assert_ne!(e.kind(), std::io::ErrorKind::Interrupted);
    }
}
