//! # s2g-failpoints — named failure injection for chaos drills
//!
//! Production robustness is proven by *causing* failures, not waiting for
//! them. This crate compiles a small, fixed registry of named failpoints
//! into the serving stack's hot paths (store writes, store reads, pool
//! task execution, connection reads, journal appends) behind a single
//! relaxed atomic check:
//!
//! * **Zero-cost when off** — [`check`] is one relaxed `AtomicUsize` load
//!   when no failpoint is armed anywhere in the process; the slow path
//!   (name lookup, probability draw, budget accounting) only runs while a
//!   drill is active.
//! * **Fixed registry** — the failpoint names are a compile-time table
//!   ([`NAMES`]), like the metrics grid: arming an unknown name is an
//!   error, not a silent no-op, so drills cannot typo their way into
//!   "passing".
//! * **Actions** — `off`, `error` (an injected `io::Error` whose errno
//!   matches the name's suffix: `.enospc` → `ENOSPC`, `.eio` → `EIO`),
//!   `delay:<ms>` (sleep, then proceed), and `panic`.
//! * **Probability & budgets** — each failpoint fires with a configurable
//!   probability (deterministic xorshift draw, so drills replay) and an
//!   optional hit budget: after `budget` triggers the failpoint disarms
//!   itself.
//! * **Accounting** — every trigger increments a per-failpoint counter
//!   ([`snapshot`] feeds `/metrics`) and invokes an optional process-wide
//!   hook ([`set_trigger_hook`]) the server uses to journal triggers.
//!
//! Spec grammar (for `serve --failpoints` and the `S2G_FAILPOINTS` env
//! var): comma-separated `name=action` entries, where `action` is
//! `off | error | panic | delay:<ms>`, each optionally followed by
//! `;p=<0..=1>` (probability, default 1) and `;budget=<n>` (max triggers,
//! default unlimited):
//!
//! ```text
//! store.write.enospc=error;budget=3,net.read.stall=delay:25;p=0.5
//! ```
//!
//! Failpoint state is process-global by design — a drill arms a failpoint
//! over the wire and the fault fires deep inside the store or pool of the
//! same process. Tests that arm failpoints must serialize on a lock and
//! disarm on exit (see the server's `chaos_drills` suite).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Every failpoint compiled into the stack. Arming any other name is a
/// [`FailpointError::UnknownName`].
pub const NAMES: &[&str] = &[
    // Store `atomic_write` (model save / manifest write) fails ENOSPC.
    "store.write.enospc",
    // Store model load (whole-file read) fails EIO.
    "store.read.eio",
    // Pool task execution panics mid-compute.
    "pool.task.panic",
    // Server connection read stalls (delay) or drops (error).
    "net.read.stall",
    // Journal segment append fails ENOSPC.
    "journal.write.enospc",
];

const ACTION_OFF: u8 = 0;
const ACTION_ERROR: u8 = 1;
const ACTION_DELAY: u8 = 2;
const ACTION_PANIC: u8 = 3;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Disarmed: the failpoint never fires.
    Off,
    /// Return an injected I/O error (errno chosen from the name suffix).
    Error,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
    /// Panic at the failpoint site.
    Panic,
}

impl Action {
    /// Stable lowercase name (`off`/`error`/`delay`/`panic`).
    pub fn kind(&self) -> &'static str {
        match self {
            Action::Off => "off",
            Action::Error => "error",
            Action::Delay(_) => "delay",
            Action::Panic => "panic",
        }
    }
}

/// Full arming configuration for one failpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// What the failpoint does when it fires.
    pub action: Action,
    /// Probability in `[0, 1]` that an armed hit actually fires.
    pub probability: f64,
    /// Maximum number of triggers before the failpoint disarms itself;
    /// `None` is unlimited.
    pub budget: Option<u64>,
}

impl Settings {
    /// An always-firing, unlimited-budget configuration for `action`.
    pub fn new(action: Action) -> Self {
        Settings {
            action,
            probability: 1.0,
            budget: None,
        }
    }
}

/// The fault a firing failpoint asks its call site to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Inject an error (call sites use [`injected_io_error`]).
    Error,
    /// Sleep this long, then proceed.
    Delay(Duration),
    /// Panic here.
    Panic,
}

/// Errors from arming or parsing failpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailpointError {
    /// The name is not in the compiled registry ([`NAMES`]).
    UnknownName(String),
    /// A spec string did not parse; the message points at the bad entry.
    BadSpec(String),
}

impl fmt::Display for FailpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailpointError::UnknownName(name) => {
                write!(
                    f,
                    "unknown failpoint {name:?} (known: {})",
                    NAMES.join(", ")
                )
            }
            FailpointError::BadSpec(msg) => write!(f, "bad failpoint spec: {msg}"),
        }
    }
}

impl std::error::Error for FailpointError {}

/// One failpoint's live state for `/metrics` and `POST /debug/failpoint`
/// responses.
#[derive(Debug, Clone, PartialEq)]
pub struct Status {
    /// Registry name.
    pub name: &'static str,
    /// Action kind (`off`/`error`/`delay`/`panic`).
    pub action: &'static str,
    /// Delay in milliseconds (0 unless the action is `delay`).
    pub delay_ms: u64,
    /// Firing probability in `[0, 1]`.
    pub probability: f64,
    /// Remaining trigger budget; `None` is unlimited.
    pub budget_remaining: Option<u64>,
    /// Lifetime trigger count (survives disarm; monotonic).
    pub triggers: u64,
}

#[derive(Debug)]
struct State {
    action: std::sync::atomic::AtomicU8,
    delay_ms: AtomicU64,
    prob_permille: AtomicU32,
    /// Remaining budget; `u64::MAX` means unlimited.
    budget: AtomicU64,
    triggers: AtomicU64,
}

impl State {
    const fn new() -> Self {
        State {
            action: std::sync::atomic::AtomicU8::new(ACTION_OFF),
            delay_ms: AtomicU64::new(0),
            prob_permille: AtomicU32::new(1000),
            budget: AtomicU64::new(u64::MAX),
            triggers: AtomicU64::new(0),
        }
    }
}

// One slot per NAMES entry; positions align.
const _: () = assert!(NAMES.len() == 5, "STATES must grow with NAMES");
static STATES: [State; 5] = [
    State::new(),
    State::new(),
    State::new(),
    State::new(),
    State::new(),
];

/// Count of armed failpoints — the single global gate [`check`] loads.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// Deterministic xorshift64* state for probability draws.
static RNG: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

type TriggerHook = dyn Fn(&'static str, &'static str) + Send + Sync;

static HOOK: Mutex<Option<std::sync::Arc<TriggerHook>>> = Mutex::new(None);

fn index_of(name: &str) -> Option<usize> {
    NAMES.iter().position(|&n| n == name)
}

fn draw_permille() -> u32 {
    // xorshift64* on a shared atomic: races only lose a step of the
    // sequence, never its determinism guarantees for single-threaded
    // drills.
    let mut x = RNG.load(Ordering::Relaxed);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    RNG.store(x, Ordering::Relaxed);
    (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % 1000) as u32
}

/// Installs (replacing any previous) the process-wide trigger hook,
/// invoked as `(failpoint name, action kind)` on every fire — the server
/// journals triggers through it. Pass-through of the serving path's
/// latency does not matter here: the hook only runs when a fault fires.
pub fn set_trigger_hook(hook: std::sync::Arc<TriggerHook>) {
    *HOOK.lock().unwrap_or_else(|e| e.into_inner()) = Some(hook);
}

/// Removes the trigger hook.
pub fn clear_trigger_hook() {
    *HOOK.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

fn fire_hook(name: &'static str, kind: &'static str) {
    let hook = HOOK.lock().unwrap_or_else(|e| e.into_inner()).clone();
    if let Some(hook) = hook {
        hook(name, kind);
    }
}

/// Arms `name` with `settings` (action `Off` disarms). Probability is
/// clamped to `[0, 1]`; a budget of `Some(0)` disarms immediately.
///
/// # Errors
/// [`FailpointError::UnknownName`] when `name` is not compiled in.
pub fn arm(name: &str, settings: Settings) -> Result<(), FailpointError> {
    let idx = index_of(name).ok_or_else(|| FailpointError::UnknownName(name.to_string()))?;
    let state = &STATES[idx];
    let (code, delay_ms) = match settings.action {
        Action::Off => (ACTION_OFF, 0),
        Action::Error => (ACTION_ERROR, 0),
        Action::Delay(d) => (
            ACTION_DELAY,
            u64::try_from(d.as_millis()).unwrap_or(u64::MAX),
        ),
        Action::Panic => (ACTION_PANIC, 0),
    };
    let effective = if settings.budget == Some(0) {
        ACTION_OFF
    } else {
        code
    };
    let permille = (settings.probability.clamp(0.0, 1.0) * 1000.0).round() as u32;
    state.delay_ms.store(delay_ms, Ordering::Relaxed);
    state.prob_permille.store(permille, Ordering::Relaxed);
    state
        .budget
        .store(settings.budget.unwrap_or(u64::MAX), Ordering::Relaxed);
    let previous = state.action.swap(effective, Ordering::Relaxed);
    match (previous != ACTION_OFF, effective != ACTION_OFF) {
        (false, true) => {
            ARMED.fetch_add(1, Ordering::Relaxed);
        }
        (true, false) => {
            ARMED.fetch_sub(1, Ordering::Relaxed);
        }
        _ => {}
    }
    Ok(())
}

/// Disarms `name`.
///
/// # Errors
/// [`FailpointError::UnknownName`] when `name` is not compiled in.
pub fn disarm(name: &str) -> Result<(), FailpointError> {
    arm(name, Settings::new(Action::Off))
}

/// Disarms every failpoint (trigger counters are retained).
pub fn disarm_all() {
    for name in NAMES {
        let _ = disarm(name);
    }
}

fn self_disarm(state: &State) {
    if state.action.swap(ACTION_OFF, Ordering::Relaxed) != ACTION_OFF {
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Evaluates the failpoint `name` at a call site. Returns `None` when the
/// failpoint is off, out of budget, or lost its probability draw; a
/// [`Fault`] the site must inject otherwise. The fast path — nothing
/// armed anywhere — is a single relaxed atomic load.
#[inline]
pub fn check(name: &'static str) -> Option<Fault> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    check_slow(name)
}

#[cold]
fn check_slow(name: &'static str) -> Option<Fault> {
    let state = &STATES[index_of(name)?];
    let action = state.action.load(Ordering::Relaxed);
    if action == ACTION_OFF {
        return None;
    }
    let permille = state.prob_permille.load(Ordering::Relaxed);
    if permille < 1000 && draw_permille() >= permille {
        return None;
    }
    // Budget: claim one hit; u64::MAX means unlimited (and would take
    // longer than the universe to drain one fetch_sub at a time).
    let before = state.budget.load(Ordering::Relaxed);
    if before != u64::MAX {
        if before == 0 {
            self_disarm(state);
            return None;
        }
        let remaining = state.budget.fetch_sub(1, Ordering::Relaxed);
        if remaining == 0 {
            // Lost a race past zero: restore and disarm.
            state.budget.store(0, Ordering::Relaxed);
            self_disarm(state);
            return None;
        }
        if remaining == 1 {
            self_disarm(state);
        }
    }
    state.triggers.fetch_add(1, Ordering::Relaxed);
    let fault = match action {
        ACTION_ERROR => Fault::Error,
        ACTION_DELAY => Fault::Delay(Duration::from_millis(
            state.delay_ms.load(Ordering::Relaxed),
        )),
        _ => Fault::Panic,
    };
    fire_hook(
        name,
        match fault {
            Fault::Error => "error",
            Fault::Delay(_) => "delay",
            Fault::Panic => "panic",
        },
    );
    Some(fault)
}

/// The injected `io::Error` for an error fault at `name`: errno `ENOSPC`
/// for `.enospc` names, `EIO` for `.eio`, a plain "other" error
/// otherwise. Errno-suffixed names return a genuine OS error
/// (`raw_os_error()` is set), so call sites that classify disk faults by
/// errno treat injected and real failures identically.
pub fn injected_io_error(name: &str) -> std::io::Error {
    if name.ends_with(".enospc") {
        std::io::Error::from_raw_os_error(28) // ENOSPC
    } else if name.ends_with(".eio") {
        std::io::Error::from_raw_os_error(5) // EIO
    } else {
        std::io::Error::other(format!("failpoint {name} injected error"))
    }
}

/// The all-in-one call-site helper: evaluates `name`, sleeps through
/// delay faults, panics on panic faults, and returns the injected
/// `io::Error` for error faults (`None` when nothing fired).
pub fn hit(name: &'static str) -> Option<std::io::Error> {
    match check(name)? {
        Fault::Error => Some(injected_io_error(name)),
        Fault::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        Fault::Panic => panic!("failpoint {name} injected panic"),
    }
}

/// Live status of every registered failpoint, in [`NAMES`] order.
pub fn snapshot() -> Vec<Status> {
    NAMES
        .iter()
        .zip(STATES.iter())
        .map(|(&name, state)| {
            let action = match state.action.load(Ordering::Relaxed) {
                ACTION_ERROR => "error",
                ACTION_DELAY => "delay",
                ACTION_PANIC => "panic",
                _ => "off",
            };
            let budget = state.budget.load(Ordering::Relaxed);
            Status {
                name,
                action,
                delay_ms: state.delay_ms.load(Ordering::Relaxed),
                probability: f64::from(state.prob_permille.load(Ordering::Relaxed)) / 1000.0,
                budget_remaining: (budget != u64::MAX).then_some(budget),
                triggers: state.triggers.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Status of one failpoint.
///
/// # Errors
/// [`FailpointError::UnknownName`] when `name` is not compiled in.
pub fn status(name: &str) -> Result<Status, FailpointError> {
    let idx = index_of(name).ok_or_else(|| FailpointError::UnknownName(name.to_string()))?;
    Ok(snapshot().swap_remove(idx))
}

/// Parses one `name=action[;p=..][;budget=..]` entry into `(name,
/// settings)` without arming it.
///
/// # Errors
/// [`FailpointError::BadSpec`] on grammar errors,
/// [`FailpointError::UnknownName`] for unregistered names.
pub fn parse_entry(entry: &str) -> Result<(&str, Settings), FailpointError> {
    let bad = |msg: String| FailpointError::BadSpec(msg);
    let (name, rest) = entry
        .split_once('=')
        .ok_or_else(|| bad(format!("{entry:?} is not name=action")))?;
    let name = name.trim();
    if index_of(name).is_none() {
        return Err(FailpointError::UnknownName(name.to_string()));
    }
    let mut parts = rest.split(';');
    let action_part = parts.next().unwrap_or("").trim();
    let action = match action_part.split_once(':') {
        Some(("delay", ms)) => {
            let ms: u64 = ms
                .trim()
                .parse()
                .map_err(|_| bad(format!("delay wants milliseconds, got {ms:?}")))?;
            Action::Delay(Duration::from_millis(ms))
        }
        None => match action_part {
            "off" => Action::Off,
            "error" => Action::Error,
            "panic" => Action::Panic,
            other => return Err(bad(format!("unknown action {other:?} in {entry:?}"))),
        },
        Some((other, _)) => return Err(bad(format!("unknown action {other:?} in {entry:?}"))),
    };
    let mut settings = Settings::new(action);
    for modifier in parts {
        let modifier = modifier.trim();
        match modifier.split_once('=') {
            Some(("p", v)) => {
                settings.probability = v
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("p wants a probability, got {v:?}")))?;
                if !(0.0..=1.0).contains(&settings.probability) {
                    return Err(bad(format!("p={v} outside [0, 1]")));
                }
            }
            Some(("budget", v)) => {
                settings.budget = Some(
                    v.trim()
                        .parse()
                        .map_err(|_| bad(format!("budget wants a count, got {v:?}")))?,
                );
            }
            _ => return Err(bad(format!("unknown modifier {modifier:?} in {entry:?}"))),
        }
    }
    Ok((name, settings))
}

/// Parses and arms a full spec string (comma-separated entries; empty
/// strings and the literal `on` arm nothing — they just exist so `serve
/// --failpoints on` can enable the debug endpoint without arming).
///
/// # Errors
/// The first entry that fails to parse or names an unknown failpoint;
/// entries before it stay armed.
pub fn apply_spec(spec: &str) -> Result<(), FailpointError> {
    let spec = spec.trim();
    if spec.is_empty() || spec == "on" {
        return Ok(());
    }
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, settings) = parse_entry(entry)?;
        arm(name, settings)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Mutex, MutexGuard};

    // Failpoint state is process-global; tests serialize on this lock and
    // disarm everything on entry.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        clear_trigger_hook();
        guard
    }

    #[test]
    fn off_means_none_and_unknown_names_fail_closed() {
        let _guard = lock();
        assert_eq!(check("store.write.enospc"), None);
        assert!(matches!(
            arm("no.such.point", Settings::new(Action::Error)),
            Err(FailpointError::UnknownName(_))
        ));
    }

    #[test]
    fn error_fault_fires_counts_and_builds_errno_errors() {
        let _guard = lock();
        let before = status("store.write.enospc").unwrap().triggers;
        arm("store.write.enospc", Settings::new(Action::Error)).unwrap();
        assert_eq!(check("store.write.enospc"), Some(Fault::Error));
        let status = status("store.write.enospc").unwrap();
        assert_eq!(status.action, "error");
        assert_eq!(status.triggers, before + 1);
        let err = injected_io_error("store.write.enospc");
        // A genuine OS error: call sites classifying disk faults by errno
        // must see injected and real ENOSPC identically.
        assert_eq!(err.raw_os_error(), Some(28));
        assert_eq!(
            injected_io_error("store.read.eio").raw_os_error(),
            Some(5),
            "eio maps to errno 5"
        );
        assert!(injected_io_error("pool.task.panic")
            .to_string()
            .contains("pool.task.panic"));
        disarm_all();
        assert_eq!(check("store.write.enospc"), None);
    }

    #[test]
    fn budget_self_disarms_after_n_triggers() {
        let _guard = lock();
        arm(
            "store.read.eio",
            Settings {
                action: Action::Error,
                probability: 1.0,
                budget: Some(2),
            },
        )
        .unwrap();
        assert_eq!(check("store.read.eio"), Some(Fault::Error));
        assert_eq!(check("store.read.eio"), Some(Fault::Error));
        assert_eq!(check("store.read.eio"), None);
        assert_eq!(status("store.read.eio").unwrap().action, "off");
        assert_eq!(status("store.read.eio").unwrap().budget_remaining, Some(0));
    }

    #[test]
    fn zero_probability_never_fires_and_spec_round_trips() {
        let _guard = lock();
        apply_spec("net.read.stall=delay:25;p=0,journal.write.enospc=error;budget=7").unwrap();
        for _ in 0..100 {
            assert_eq!(check("net.read.stall"), None, "p=0 must never fire");
        }
        let s = status("net.read.stall").unwrap();
        assert_eq!((s.action, s.delay_ms, s.probability), ("delay", 25, 0.0));
        let j = status("journal.write.enospc").unwrap();
        assert_eq!((j.action, j.budget_remaining), ("error", Some(7)));
        disarm_all();
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _guard = lock();
        assert!(apply_spec("store.write.enospc").is_err());
        assert!(apply_spec("store.write.enospc=explode").is_err());
        assert!(apply_spec("store.write.enospc=error;p=2").is_err());
        assert!(apply_spec("bogus=error").is_err());
        // Empty / "on" are no-ops that succeed.
        apply_spec("").unwrap();
        apply_spec("on").unwrap();
    }

    #[test]
    fn hit_sleeps_through_delay_and_returns_errors() {
        let _guard = lock();
        arm(
            "net.read.stall",
            Settings::new(Action::Delay(Duration::from_millis(5))),
        )
        .unwrap();
        let t0 = std::time::Instant::now();
        assert!(hit("net.read.stall").is_none());
        assert!(t0.elapsed() >= Duration::from_millis(5));
        arm("net.read.stall", Settings::new(Action::Error)).unwrap();
        assert!(hit("net.read.stall").is_some());
        disarm_all();
    }

    #[test]
    fn trigger_hook_sees_every_fire() {
        let _guard = lock();
        let seen = Arc::new(AtomicUsize::new(0));
        let hook_seen = Arc::clone(&seen);
        set_trigger_hook(Arc::new(move |name, kind| {
            assert_eq!(name, "pool.task.panic");
            assert_eq!(kind, "error");
            hook_seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }));
        // Arm as error (not panic) so the test thread survives checking.
        arm("pool.task.panic", Settings::new(Action::Error)).unwrap();
        assert!(check("pool.task.panic").is_some());
        assert!(check("pool.task.panic").is_some());
        assert_eq!(seen.load(std::sync::atomic::Ordering::Relaxed), 2);
        clear_trigger_hook();
        disarm_all();
    }

    #[test]
    #[should_panic(expected = "failpoint")]
    fn panic_action_panics() {
        // Deliberately does not take the lock pattern of disarming at the
        // end (it panics); uses the lock only to serialize.
        let _guard = lock();
        arm("pool.task.panic", Settings::new(Action::Panic)).unwrap();
        let _ = hit("pool.task.panic");
    }
}
