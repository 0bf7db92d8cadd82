//! `rebase`: one op is one 64-CVE × D1–D4 matrix for one drift seed,
//! with seed-derived drift seeds op after op. The benchmark drives the
//! matrix itself through public calls — `generate_drift`, the drifted
//! image build, then `rebase_update` per cell on the workers — so each
//! cell (the item of this workload) is timed on its own.
//!
//! Checks, against the `DriftLog` ground truth: no misport (an
//! auto-ported cell whose patched function the drift deleted, or whose
//! hunk landed in a split wrapper), no unclassified refusal, no
//! auto-ported cell that failed verification; and the matrix for the
//! reference seed `0xd41f75ee` ports 224 of 256 cells, as does the
//! evaluator's own `run_rebase_matrix`, cell for cell.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ksplice_core::{
    rebase_update, ApplyOptions, BuildCache, CreateOptions, Ksplice, RebaseOptions, RebaseStatus,
    Tracer, UpdatePack,
};
use ksplice_eval::{
    canonical_base_tree, corpus, diff_trees, run_rebase_matrix, Cve, RebaseMatrixConfig,
};
use ksplice_kernel::Kernel;
use ksplice_lang::{
    build_tree_image_cached, canonicalize_tree, generate_drift, DriftLevel, DriftLog, FnFate,
    Options, SourceTree,
};
use ksplice_object::ObjectSet;

use crate::corpus::write_trace;
use crate::layers::{count_kernel, Layers};
use crate::report::{end_to_end, RunResult, Samples};
use crate::seed::derive;
use crate::spans::{time_on, SpanLog};
use crate::{timed_setup, workers, RunArgs, SETUP_REPEATS};

/// The evaluator's reference drift seed.
pub const REFERENCE_SEED: u64 = 0xd41f_75ee;
/// Cells auto-ported at the reference seed.
pub const REFERENCE_PORTED: usize = 224;
/// Matrices every run completes (1 280 cells, so ≥ 10 lie beyond the
/// p99); the quality ratio is taken over them.
const MIN_MATRICES: u64 = 5;

/// Shared state: the canonical tree, the corpus and its patches
/// recomputed in canonical space.
pub struct Setup {
    canon: SourceTree,
    cases: Vec<Cve>,
    patches: Vec<(String, CreateOptions)>,
    victims: Vec<String>,
}

impl Setup {
    /// Canonicalizes the base tree and every corpus patch.
    pub fn new() -> Result<Setup, String> {
        let canon = canonical_base_tree();
        let cases = corpus();
        let mut victims: Vec<String> = cases
            .iter()
            .flat_map(|c| c.edited_fns.iter().map(|f| f.to_string()))
            .collect();
        victims.sort();
        victims.dedup();
        let patches = cases
            .iter()
            .map(|case| {
                let custom = case.needs_custom_code();
                let patched = if custom {
                    case.patched_tree_with_custom()
                } else {
                    case.patched_tree()
                };
                let opts = CreateOptions {
                    accept_data_changes: custom,
                    ..CreateOptions::default()
                };
                (diff_trees(&canon, &canonicalize_tree(&patched)), opts)
            })
            .collect();
        // Warm-up: the canonical tree must build.
        build_tree_image_cached(&canon, &Options::distro(), &BuildCache::new())
            .map_err(|e| format!("canonical tree: {e}"))?;
        Ok(Setup {
            canon,
            cases,
            patches,
            victims,
        })
    }
}

/// One decided cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// CVE id.
    pub cve: &'static str,
    /// Drift level.
    pub level: DriftLevel,
    /// The pipeline's verdict.
    pub status: RebaseStatus,
    /// The original pack was reused verbatim.
    pub reused: bool,
    /// Drift seed of the cell's matrix.
    pub drift_seed: u64,
    /// rebase_update wall time (ms).
    pub ms: f64,
    /// Output-check failures.
    pub errors: Vec<String>,
    /// The pack to ship, when the port verified.
    pub pack: Option<UpdatePack>,
}

/// Grades a rebase outcome (status, ported functions, refusal reasons,
/// verification bit) against the drift log's ground truth.
pub fn grade(
    case: &Cve,
    log: &DriftLog,
    status: RebaseStatus,
    ported: &[String],
    reasons: &[String],
    verified: bool,
) -> Vec<String> {
    let mut errs = Vec::new();
    if status == RebaseStatus::AutoPorted {
        for f in &case.edited_fns {
            match log.fate(f) {
                FnFate::Deleted => errs.push(format!("misport: {f} was deleted by drift")),
                FnFate::Split if ported.iter().any(|p| p == f) => errs.push(format!(
                    "misport: {f} was split, yet a hunk landed in the wrapper"
                )),
                _ => {}
            }
        }
        if !verified {
            errs.push("auto-ported but not verified".into());
        }
    } else if reasons.is_empty() {
        errs.push(format!("{} without a classified reason", status.as_str()));
    }
    errs
}

/// One matrix: drift per level, build the drifted images, then every
/// (level, CVE) cell on the workers. `log` (traced runs) gets the
/// matrix-level spans; `cell_logs` one log per worker for cell spans.
fn matrix(
    s: &Setup,
    drift_seed: u64,
    mut log: Option<&mut SpanLog>,
    cell_logs: Option<&mut [SpanLog]>,
) -> Result<Vec<Cell>, String> {
    let cache = BuildCache::new();
    let mut drifted: Vec<(SourceTree, DriftLog, ObjectSet)> = Vec::new();
    for level in DriftLevel::ALL {
        let (tree, dlog) = time_on(log.as_deref_mut(), "lang.drift", || {
            generate_drift(&s.canon, level, drift_seed, &s.victims)
        })?;
        let (image, _) = time_on(log.as_deref_mut(), "lang.build", || {
            build_tree_image_cached(&tree, &Options::distro(), &cache)
        })
        .map_err(|e| format!("drifted tree {level} (seed {drift_seed:#x}) does not build: {e}"))?;
        drifted.push((tree, dlog, image));
    }
    let total = DriftLevel::ALL.len() * s.cases.len();
    let next = AtomicUsize::new(0);
    let run_cells = |cell_log: Option<&mut SpanLog>| {
        let mut cell_log = cell_log;
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= total {
                break;
            }
            let (li, ci) = (i / s.cases.len(), i % s.cases.len());
            let (tree, dlog, _) = &drifted[li];
            let case = &s.cases[ci];
            let (patch, create) = &s.patches[ci];
            let opts = RebaseOptions {
                create: create.clone(),
                ..RebaseOptions::default()
            };
            let t = Instant::now();
            let call = || {
                rebase_update(
                    case.id,
                    &s.canon,
                    patch,
                    tree,
                    &opts,
                    &cache,
                    &mut Tracer::disabled(),
                )
            };
            let result = time_on(cell_log.as_deref_mut(), "rebase.cell", call);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let level = DriftLevel::ALL[li];
            done.push(match result {
                Ok((report, pack)) => Cell {
                    cve: case.id,
                    level,
                    status: report.status,
                    reused: report.reused_pack,
                    drift_seed,
                    ms,
                    errors: grade(
                        case,
                        dlog,
                        report.status,
                        &report.ported_fns,
                        &report.reasons,
                        report.verified,
                    ),
                    pack,
                },
                Err(e) => Cell {
                    cve: case.id,
                    level,
                    status: RebaseStatus::Rejected,
                    reused: false,
                    drift_seed,
                    ms,
                    errors: vec![format!("rebase_update: {e}")],
                    pack: None,
                },
            });
        }
        done
    };
    let mut cells: Vec<Cell> = std::thread::scope(|scope| {
        let handles: Vec<_> = match cell_logs {
            Some(logs) => logs
                .iter_mut()
                .map(|l| scope.spawn(|| run_cells(Some(l))))
                .collect(),
            None => (0..workers())
                .map(|_| scope.spawn(|| run_cells(None)))
                .collect(),
        };
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("rebase worker panicked"))
            .collect()
    });
    cells.sort_by_key(|c| (c.level as u8, c.cve));
    Ok(cells)
}

/// Drift seed of matrix `i` in the run seeded `seed`.
fn drift_seed(seed: u64, i: u64) -> u64 {
    derive(seed ^ i, "drift")
}

/// Runs matrices back to back for `budget` (at least `min_ops`).
fn run_loop(
    s: &Setup,
    seed: u64,
    budget: Duration,
    min_ops: u64,
    first: u64,
    mut logs: Option<(&mut SpanLog, &mut [SpanLog])>,
) -> Result<(Vec<Vec<Cell>>, f64), String> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut i = first;
    while start.elapsed() < budget || (out.len() as u64) < min_ops {
        let ds = drift_seed(seed, i);
        let cells = match logs.as_mut() {
            Some((log, cell_logs)) => log.op(i, |log| matrix(s, ds, Some(log), Some(cell_logs)))?,
            None => matrix(s, ds, None, None)?,
        };
        out.push(cells);
        i += 1;
    }
    Ok((out, start.elapsed().as_secs_f64()))
}

/// Folds per-cell checks into `result`; each cell is one attempted op.
fn check(matrices: &[Vec<Cell>], result: &mut RunResult) {
    for c in matrices.iter().flatten() {
        result.attempted += 1;
        if !c.errors.is_empty() {
            result.failed += 1;
            if result.notes.len() < 20 {
                result.note(format!(
                    "failed cell {} @ {} (drift seed {:#x}): {}",
                    c.cve,
                    c.level.name(),
                    c.drift_seed,
                    c.errors.join("; ")
                ));
            }
        }
    }
}

fn ported(cells: &[Cell]) -> usize {
    cells
        .iter()
        .filter(|c| c.status == RebaseStatus::AutoPorted)
        .count()
}

/// The reference checks: 224/256 at the reference seed through this
/// benchmark's own matrix, and the same verdict for every cell from
/// `run_rebase_matrix`.
pub fn check_reference(s: &Setup, result: &mut RunResult) -> Result<(), String> {
    let mine = matrix(s, REFERENCE_SEED, None, None)?;
    check(std::slice::from_ref(&mine), result);
    if ported(&mine) != REFERENCE_PORTED {
        result.correct = false;
        result.note(format!(
            "reference seed ported {}/256, want {REFERENCE_PORTED}",
            ported(&mine)
        ));
    }
    let cfg = RebaseMatrixConfig {
        jobs: workers(),
        ..RebaseMatrixConfig::default()
    };
    let theirs = run_rebase_matrix(&cfg, &mut Tracer::disabled())?;
    let agree = theirs.cells.len() == mine.len()
        && theirs.cells.iter().all(|t| {
            mine.iter().any(|m| {
                m.cve == t.cve && m.level == t.level && m.status == t.status && m.reused == t.reused
            })
        });
    if !agree || !theirs.misports().is_empty() || !theirs.unclassified().is_empty() {
        result.correct = false;
        result
            .note("run_rebase_matrix disagrees with the benchmark's matrix at the reference seed");
    }
    Ok(())
}

/// The `rebase` workload.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let (setup_s, s) = timed_setup(SETUP_REPEATS, Setup::new)?;
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    result.note(format!("workers: {}", workers()));
    if args.trace {
        return run_traced(args, &s, result);
    }
    let (matrices, wall) = run_loop(&s, args.seed, args.seconds, MIN_MATRICES, 0, None)?;
    check(&matrices, &mut result);
    check_reference(&s, &mut result)?;
    let mut item = Samples::default();
    matrices.iter().flatten().for_each(|c| item.push(c.ms));
    let first: Vec<&Cell> = matrices
        .iter()
        .take(MIN_MATRICES as usize)
        .flatten()
        .collect();
    let quality = first
        .iter()
        .filter(|c| c.status == RebaseStatus::AutoPorted)
        .count() as f64
        / first.len() as f64;
    result.note(format!(
        "ops: {} matrices, {} cells in {wall:.3} s",
        matrices.len(),
        item.len()
    ));
    end_to_end(
        &mut result,
        setup_s,
        item.len() as f64 / wall,
        &item,
        quality,
    );
    Ok(result)
}

/// Auto-ported cells whose verification gate is replayed.
const VERIFY_REPLAYS: usize = 32;

fn run_traced(args: &RunArgs, s: &Setup, mut result: RunResult) -> Result<RunResult, String> {
    let third = args.seconds / 3;
    let (plain, plain_wall) = run_loop(s, args.seed, third, 1, 0, None)?;
    check(&plain, &mut result);
    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let mut cell_logs: Vec<SpanLog> = (0..workers()).map(|_| SpanLog::new(origin)).collect();
    let (traced, traced_wall) = run_loop(
        s,
        args.seed,
        third,
        1,
        plain.len() as u64,
        Some((&mut log, &mut cell_logs)),
    )?;
    check(&traced, &mut result);
    check_reference(s, &mut result)?;

    let mut layers = Layers::default();
    let per = traced.len() as f64;
    let (_, op_ms) = log.ops();
    let mut cells_log = SpanLog::new(origin);
    for l in cell_logs {
        cells_log.absorb(l);
    }
    let cells: Vec<&Cell> = traced.iter().flatten().collect();
    let prelude_ms = layers.absorb_log(&log, per);
    let cell_ms = cells_log.self_ms("rebase.cell");
    layers.set("rebase.cell_ms", cell_ms / cells.len() as f64);
    layers.set(
        "rebase.reused_ratio",
        cells.iter().filter(|c| c.reused).count() as f64 / cells.len() as f64,
    );
    layers.set(
        "rebase.unattributed_ms",
        op_ms / per - prelude_ms - cell_ms / per / workers() as f64,
    );
    let rate = |m: &[Vec<Cell>], wall: f64| m.iter().map(Vec::len).sum::<usize>() as f64 / wall;
    layers.set(
        "trace.overhead_pct",
        (rate(&plain, plain_wall) / rate(&traced, traced_wall) - 1.0) * 100.0,
    );

    // The verification gate runs inside `rebase_update`: replay it for
    // a sample of auto-ported cells — boot the drifted image, apply the
    // shipped pack, undo, compare the text checksum.
    let mut replay = SpanLog::new(origin);
    let mut verified = 0usize;
    let matrix0 = &traced[0];
    let ds = drift_seed(args.seed, plain.len() as u64);
    let cache = BuildCache::new();
    let images: Vec<ObjectSet> = DriftLevel::ALL
        .iter()
        .map(|&level| {
            let (tree, _) = generate_drift(&s.canon, level, ds, &s.victims)?;
            build_tree_image_cached(&tree, &Options::distro(), &cache)
                .map(|(set, _)| set)
                .map_err(|e| format!("replay image {level}: {e}"))
        })
        .collect::<Result<_, String>>()?;
    for (n, c) in matrix0
        .iter()
        .filter(|c| c.pack.is_some())
        .take(VERIFY_REPLAYS)
        .enumerate()
    {
        let pack = c.pack.as_ref().expect("filtered on pack");
        let image = &images[DriftLevel::ALL
            .iter()
            .position(|l| *l == c.level)
            .expect("level")];
        let ok = replay.op(n as u64, |log| {
            let gate = log.time("rebase.verify", || -> Result<(bool, Kernel), String> {
                let mut k = Kernel::boot_image(image).map_err(|e| format!("boot: {e}"))?;
                let before = k.mem.text_checksum();
                let opts = ApplyOptions::default();
                let mut ks = Ksplice::new();
                ks.apply_traced(&mut k, pack, &opts, &mut Tracer::disabled())
                    .map_err(|e| format!("apply: {e}"))?;
                ks.undo_traced(&mut k, &pack.id, &opts, &mut Tracer::disabled())
                    .map_err(|e| format!("undo: {e}"))?;
                Ok((k.mem.text_checksum() == before, k))
            });
            gate.map(|(same, k)| {
                count_kernel(log, &k);
                same
            })
        });
        if ok != Ok(true) {
            result.correct = false;
            result.note(format!(
                "replayed verification of {} @ {} failed: {ok:?}",
                c.cve,
                c.level.name()
            ));
        }
        verified += 1;
    }
    let verify_ms = replay.self_ms("rebase.verify");
    layers.set("rebase.verify_ms", verify_ms / verified.max(1) as f64);
    result.note(format!(
        "untraced matrices: {}; traced matrices: {}; verify replays: {verified}",
        plain.len(),
        traced.len()
    ));
    log.absorb(cells_log);
    log.absorb(replay);
    write_trace(&log, "rebase", args.seed);
    layers.emit(&mut result);
    Ok(result)
}
