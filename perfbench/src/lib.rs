//! The repository benchmark: four closed-loop workloads that drive the
//! ksplice crates through their public API, check every output against
//! references the measured run did not produce, and report end-to-end
//! metrics (untraced runs) or a per-layer split (traced runs).
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every input is generated from `--seed`; see `README.md` next to this
//! crate for the metric definitions and the layer → end-to-end map.

pub mod corpus;
pub mod fleet;
pub mod fuzz;
pub mod layers;
pub mod pipeline;
pub mod rebase;
pub mod report;
pub mod seed;
pub mod spans;

/// Worker threads an op that parallelizes internally uses (a fleet
/// rollout's node handling, a rebase matrix's cells): the reference box
/// has two cores, and a fixed cap keeps runs comparable across machines.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Closed-loop clients of the single-threaded-op workloads (corpus,
/// fuzz). On the 2-core reference box a second client roughly doubled
/// the run-to-run spread of every timing, so one client it is.
pub const CLIENTS: usize = 1;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The command-line arguments every workload receives.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement time for one run.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

/// A closed loop over `workers` threads: each worker claims the next op
/// index and runs it, and claims another only after it completes. The
/// loop stops claiming once `budget` has elapsed and at least `min_ops`
/// ops were claimed (or at `max_ops`, when given). Returns each
/// worker's state in worker order, the loop's wall time, and every
/// op's completion time (seconds since the loop started, sorted).
pub fn closed_loop<S: Send>(
    workers: usize,
    budget: Duration,
    min_ops: u64,
    max_ops: Option<u64>,
    init: impl Fn(usize) -> S + Sync,
    op: impl Fn(&mut S, u64) + Sync,
) -> (Vec<S>, Duration, Vec<f64>) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let states: Vec<(S, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (next, init, op) = (&next, &init, &op);
                scope.spawn(move || {
                    let mut state = init(w);
                    let mut ends = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let over_time = start.elapsed() >= budget && i >= min_ops;
                        if over_time || max_ops.is_some_and(|m| i >= m) {
                            break;
                        }
                        op(&mut state, i);
                        ends.push(start.elapsed().as_secs_f64());
                    }
                    (state, ends)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed();
    let mut ends: Vec<f64> = states.iter().flat_map(|(_, e)| e.iter().copied()).collect();
    ends.sort_by(f64::total_cmp);
    (states.into_iter().map(|(s, _)| s).collect(), wall, ends)
}

/// Runs `setup` `n` times and returns the median wall time in seconds
/// together with the last result.
pub fn timed_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = report::Samples::default();
    let mut last = None;
    for _ in 0..n.max(1) {
        let t = Instant::now();
        let v = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((times.p50(), last.expect("at least one setup ran")))
}
