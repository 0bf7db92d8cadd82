//! `fuzz`: one op is one differential mutant — generated from a
//! seed-derived stream exactly as the campaign generates mutant `i`,
//! then judged by `FuzzContext::run_case` (`Workload::Both`, one shared
//! warm build cache).
//!
//! Checks: no mutant diverges, panics or hits an infra failure against
//! the cold-boot reference kernels, and the same op loop run on the
//! canonical campaign (seed 1, 200 mutants, `Workload::Both`) hashes to
//! the pinned digest `0x4ec6378fa763158d`.
//!
//! The oracle hides its layer calls, so the traced run replays a seeded
//! sample of the traced mutants through the same public calls with a
//! span around each layer, and reports the residual against the
//! undecomposed op.

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use ksplice_core::{ApplyOptions, BuildCache, CreateOptions, Ksplice, Tracer, UpdatePack};
use ksplice_eval::stress::load_stress_cached;
use ksplice_eval::{corpus, diff_trees, run_exploit, FuzzConfig, FuzzContext, Outcome, Workload};
use ksplice_kernel::{diff_images, traced_call, DiffOptions, Kernel};
use ksplice_lang::{
    build_tree_cached, build_tree_image_cached, generate_mutant, parse_unit, pretty_unit, FuzzRng,
    Mutation, Options, SourceTree, Type, Unit,
};

use crate::corpus::write_trace;
use crate::layers::{count_kernel, Layers};
use crate::pipeline::create_traced;
use crate::report::{end_to_end, window_rate, RunResult, Samples, RATE_WINDOW_S};
use crate::seed::{derive, Rng};
use crate::spans::SpanLog;
use crate::{closed_loop, timed_setup, workers, RunArgs, CLIENTS, SETUP_REPEATS};

/// FNV-1a digest of the canonical campaign (seed 1, 200 mutants,
/// `Workload::Both`), pinned by the fuzzer's determinism tests.
pub const CANONICAL_DIGEST: u64 = 0x4ec6_378f_a763_158d;
/// Seed of the canonical campaign.
pub const CANONICAL_SEED: u64 = 1;
/// Mutants in the canonical campaign.
pub const CANONICAL_MUTANTS: u64 = 200;
/// Longest mutation sequence (the campaign default).
const MAX_MUTATIONS: usize = 3;
/// Mutants the quality ratio is taken over (the first ones of a run,
/// so it is a pure function of the seed). Every run judges at least
/// this many, which also leaves ≥ 10 samples beyond the p99.
/// (`P99_MIN_SAMPLES` is 1 100.)
const QUALITY_MUTANTS: u64 = 2_000;

/// Shared state: the campaign context and the parsed canonical units.
pub struct Setup {
    cx: FuzzContext,
    units: Vec<(String, Unit)>,
}

impl Setup {
    /// `FuzzContext::new` for a `Workload::Both` campaign, plus the
    /// canonical units mutants are generated from.
    pub fn new() -> Result<Setup, String> {
        let cfg = FuzzConfig {
            workload: Workload::Both,
            ..FuzzConfig::default()
        };
        let cx = FuzzContext::new(&cfg)?;
        let units = cx
            .unit_paths()
            .map(|p| {
                let src = cx.canon.get(p).expect("unit path is in the canonical tree");
                parse_unit(p, src)
                    .map(|u| (p.to_string(), u))
                    .map_err(|e| format!("{p}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Setup { cx, units })
    }
}

/// One judged mutant.
#[derive(Debug, Clone)]
pub struct Judged {
    /// Campaign index.
    pub index: u64,
    /// Mutated unit.
    pub unit: String,
    /// The mutation sequence (empty: no mutation site).
    pub mutations: Vec<Mutation>,
    /// Outcome class key (`survived`, `killed:…`, `panicked`, …).
    pub class: String,
    /// Outcome detail.
    pub detail: String,
    /// Generation + oracle wall time (ms).
    pub ms: f64,
}

impl Judged {
    /// A failed op: an oracle divergence, a harness failure or a panic.
    pub fn failed(&self) -> bool {
        self.class.starts_with("diverged:") || self.class == "infra" || self.class == "panicked"
    }
}

/// Generates mutant `index` of the campaign seeded `seed` — the
/// campaign's own derivation — returning the unit index and mutations.
fn generate(s: &Setup, seed: u64, index: u64) -> (usize, Option<(Unit, Vec<Mutation>)>) {
    let mut rng = FuzzRng::new(seed ^ (index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let unit_idx = rng.below(s.units.len() as u64) as usize;
    (
        unit_idx,
        generate_mutant(&s.units[unit_idx].1, &mut rng, MAX_MUTATIONS),
    )
}

/// One op: generate mutant `index` and judge it with `run_case`.
pub fn judge(s: &Setup, seed: u64, index: u64) -> Judged {
    let t = Instant::now();
    let (unit_idx, generated) = generate(s, seed, index);
    let unit = s.units[unit_idx].0.clone();
    let Some((_, mutations)) = generated else {
        return Judged {
            index,
            unit,
            mutations: Vec::new(),
            class: Outcome::NoMutation.class_key(),
            detail: String::new(),
            ms: t.elapsed().as_secs_f64() * 1e3,
        };
    };
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        s.cx.run_case(&unit, &mutations, &mut Tracer::disabled())
    }));
    let (class, detail) = match run {
        Ok(Ok(o)) => (o.class_key(), o.detail().to_string()),
        Ok(Err(e)) => ("infra".to_string(), e),
        Err(_) => ("panicked".to_string(), String::new()),
    };
    Judged {
        index,
        unit,
        mutations,
        class,
        detail,
        ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

/// The campaign digest over records in index order (the fuzzer's own
/// FNV-1a fold).
pub fn digest(records: &[Judged]) -> u64 {
    fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        h = fnv1a(h, &(r.index as usize).to_le_bytes());
        h = fnv1a(h, r.unit.as_bytes());
        h = fnv1a(h, r.class.as_bytes());
        h = fnv1a(h, r.detail.as_bytes());
        for m in &r.mutations {
            h = fnv1a(h, m.to_string().as_bytes());
        }
    }
    h
}

/// Judges mutants of the campaign seeded `seed` in a closed loop (see
/// [`closed_loop`]), returning them in index order with the loop's wall
/// time (s) and op completion times.
fn run_loop(
    s: &Setup,
    seed: u64,
    clients: usize,
    budget: Duration,
    min_ops: u64,
    max_ops: Option<u64>,
) -> (Vec<Judged>, f64, Vec<f64>) {
    let (states, wall, ends) = closed_loop(
        clients,
        budget,
        min_ops,
        max_ops,
        |_| Vec::new(),
        |done: &mut Vec<Judged>, i| done.push(judge(s, seed, i)),
    );
    let mut all: Vec<Judged> = states.into_iter().flatten().collect();
    all.sort_by_key(|j| j.index);
    (all, wall.as_secs_f64(), ends)
}

/// Judges mutants `0..n` of the campaign seeded `seed` on the workers.
pub fn judge_range(s: &Setup, seed: u64, n: u64) -> Vec<Judged> {
    run_loop(s, seed, workers(), Duration::MAX, 0, Some(n)).0
}

/// Counts failed ops into `result`.
pub fn check_ops(ops: &[Judged], result: &mut RunResult) {
    result.attempted += ops.len() as u64;
    for j in ops.iter().filter(|j| j.failed()) {
        result.failed += 1;
        if result.notes.len() < 20 {
            result.note(format!(
                "failed op: mutant {} in {}: {} {}",
                j.index, j.unit, j.class, j.detail
            ));
        }
    }
}

/// The pinned-digest check: the op loop on the canonical campaign
/// must hash to `want`.
pub fn check_digest(s: &Setup, want: u64, result: &mut RunResult) {
    let got = digest(&judge_range(s, CANONICAL_SEED, CANONICAL_MUTANTS));
    if got != want {
        result.correct = false;
        result.note(format!(
            "canonical campaign digest {got:#018x}, want {want:#018x}"
        ));
    }
}

/// Survived share of the mutated (non-`no-mutation`) ones among the
/// first [`QUALITY_MUTANTS`] mutants.
fn survived_ratio(ops: &[Judged]) -> f64 {
    let first: Vec<&Judged> = ops
        .iter()
        .filter(|j| j.index < QUALITY_MUTANTS && !j.mutations.is_empty())
        .collect();
    first.iter().filter(|j| j.class == "survived").count() as f64 / first.len().max(1) as f64
}

/// The `fuzz` workload.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let (setup_s, s) = timed_setup(SETUP_REPEATS, Setup::new)?;
    let seed = derive(args.seed, "fuzz");
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    result.note(format!("clients: {CLIENTS}; fuzz seed {seed:#x}"));
    if args.trace {
        return run_traced(args, &s, seed, result);
    }
    let (ops, wall, ends) = run_loop(&s, seed, CLIENTS, args.seconds, QUALITY_MUTANTS, None);
    check_ops(&ops, &mut result);
    check_digest(&s, CANONICAL_DIGEST, &mut result);
    let mut item = Samples::default();
    ops.iter().for_each(|j| item.push(j.ms));
    let mut by_class: std::collections::BTreeMap<&str, Samples> = Default::default();
    ops.iter()
        .for_each(|j| by_class.entry(j.class.as_str()).or_default().push(j.ms));
    for (class, ms) in &by_class {
        result.note(format!(
            "class {class}: {} mutants, p50 {:.3} ms, max {:.3} ms",
            ms.len(),
            ms.p50(),
            ms.quantile(1.0)
        ));
    }
    result.note(format!(
        "ops: {} in {wall:.3} s; whole-run rate {:.4}/s",
        ops.len(),
        ops.len() as f64 / wall
    ));
    let rate = window_rate(&ends, wall, RATE_WINDOW_S);
    end_to_end(&mut result, setup_s, rate, &item, survived_ratio(&ops));
    Ok(result)
}

/// Mutants replayed layer by layer in a traced run.
const REPLAYS: usize = 48;

fn run_traced(
    args: &RunArgs,
    s: &Setup,
    seed: u64,
    mut result: RunResult,
) -> Result<RunResult, String> {
    let third = args.seconds / 3;
    let (plain, _, _) = run_loop(s, seed, CLIENTS, third, 0, None);
    check_ops(&plain, &mut result);
    // The traced phase continues the same mutant stream.
    let start = plain.len() as u64;
    let origin = Instant::now();
    let (states, _, _) = closed_loop(
        CLIENTS,
        third,
        0,
        None,
        |_| (SpanLog::new(origin), Vec::new()),
        |(log, done): &mut (SpanLog, Vec<Judged>), i| {
            let j = log.op(start + i, |_| judge(s, seed, start + i));
            done.push(j);
        },
    );
    let mut log = SpanLog::new(origin);
    let mut traced = Vec::new();
    for (l, done) in states {
        log.absorb(l);
        traced.extend(done);
    }
    check_ops(&traced, &mut result);
    check_digest(s, CANONICAL_DIGEST, &mut result);

    let median = |v: &[Judged]| {
        let mut m = Samples::default();
        v.iter().for_each(|j| m.push(j.ms));
        m.p50()
    };
    let mut layers = Layers::default();
    layers.set(
        "trace.overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
    );

    // Replay a seeded sample of the traced mutants that reached the
    // oracle, timing each undecomposed op again right before its replay.
    let mut candidates: Vec<&Judged> = traced.iter().filter(|j| !j.mutations.is_empty()).collect();
    candidates.sort_by_key(|j| j.index);
    Rng::new(args.seed, "fuzz-replay").shuffle(&mut candidates);
    candidates.truncate(REPLAYS);
    let replayer = Replayer::new(s)?;
    let mut replay = SpanLog::new(origin);
    let mut op_ms = Samples::default();
    for j in &candidates {
        let again = judge(s, seed, j.index);
        op_ms.push(again.ms);
        let (unit_idx, generated) = generate(s, seed, j.index);
        let (mutant, _) = generated.expect("candidate had mutations");
        replay.op(j.index, |log| replayer.replay(log, s, unit_idx, &mutant));
    }
    let per = candidates.len() as f64;
    let layer_ms = layers.absorb_log(&replay, per);
    layers.set("fuzz.unattributed_ms", op_ms.mean() - layer_ms);
    result.note(format!(
        "untraced ops: {}; traced ops: {}; replays: {} (op {:.4} ms, layers {:.4} ms)",
        plain.len(),
        traced.len(),
        candidates.len(),
        op_ms.mean(),
        layer_ms
    ));
    log.absorb(replay);
    write_trace(&log, "fuzz", args.seed);
    layers.emit(&mut result);
    Ok(result)
}

/// Per-workload-call interpreter budget (the campaign default).
const CALL_LIMIT: u64 = 2_000_000;
/// Stress rounds and step budget of the oracle's stress call.
const STRESS_ROUNDS: u64 = 2;
const STRESS_LIMIT: u64 = 30_000_000;
/// Cross-tree sweep length.
const SWEEP_CAP: usize = 48;

/// The oracle's public calls, in its order, with a warm cache of its
/// own: create, two reference builds (distro and a second compiler
/// version), three boots, stress loads, apply, the call sweep and the
/// stress call on all three kernels, the exploit probe, two image diffs
/// and undo. Like the oracle it stops at a refused create, a failed
/// build or boot, or an aborted apply. Unlike the oracle it does not
/// stop at a taint; the residual shows that difference.
struct Replayer {
    cache: BuildCache,
    pre_image: ksplice_object::ObjectSet,
    sweep: Vec<(String, Vec<u64>)>,
    prctl: ksplice_eval::Cve,
}

impl Replayer {
    fn new(s: &Setup) -> Result<Replayer, String> {
        let cache = BuildCache::new();
        let canon: &SourceTree = &s.cx.canon;
        let (pre_image, _) = build_tree_image_cached(canon, &Options::distro(), &cache)
            .map_err(|e| format!("replay pre image: {e}"))?;
        for opts in [Options::pre_post(), cc2()] {
            build_tree_cached(canon, &opts, &cache).map_err(|e| format!("replay warm-up: {e}"))?;
        }
        let mut names: Vec<String> = s
            .units
            .iter()
            .flat_map(|(_, u)| u.functions())
            .filter(|f| int_only(f, 2))
            .map(|f| f.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names.truncate(SWEEP_CAP);
        let sweep = names
            .into_iter()
            .enumerate()
            .map(|(k, n)| (n, vec![(k as u64 % 5) + 1, (k as u64 * 7) % 11]))
            .collect();
        let prctl = corpus()
            .into_iter()
            .find(|c| c.id == "CVE-2006-2451")
            .ok_or("prctl case missing")?;
        Ok(Replayer {
            cache,
            pre_image,
            sweep,
            prctl,
        })
    }

    fn replay(&self, log: &mut SpanLog, s: &Setup, unit_idx: usize, mutant: &Unit) {
        let (path, base) = &s.units[unit_idx];
        let canon = &s.cx.canon;
        let mut post = canon.clone();
        post.set(path, pretty_unit(mutant));
        let patch = log.time("patch", || diff_trees(canon, &post));
        let id = "fuzz-mutant";
        let Ok(bytes) = create_traced(
            log,
            id,
            canon,
            &patch,
            &CreateOptions::default(),
            &self.cache,
        ) else {
            return;
        };
        let Ok(pack) = log.time("package.parse", || UpdatePack::parse(&bytes)) else {
            return;
        };
        let mut kernels = Vec::new();
        for opts in [Options::distro(), cc2()] {
            let Ok((image, stats)) = log.time("lang.build", || {
                build_tree_cached(&post, &opts, &self.cache)
            }) else {
                return;
            };
            crate::layers::count_build(log, &stats);
            match log.time("kernel.boot", || Kernel::boot_image(&image)) {
                Ok(k) => kernels.push(k),
                Err(_) => return,
            }
        }
        match log.time("kernel.boot", || Kernel::boot_image(&self.pre_image)) {
            Ok(k) => kernels.push(k),
            Err(_) => return,
        }
        log.count("kernel.boots", kernels.len() as f64);
        let mut entries = Vec::new();
        for k in kernels.iter_mut() {
            match log.time("eval.stress", || load_stress_cached(k, &self.cache)) {
                Ok(e) => entries.push(e),
                Err(_) => return,
            }
        }
        let opts = ApplyOptions::default();
        let mut ks = Ksplice::new();
        let subject = &mut kernels[2];
        let Ok(report) = log.time("apply", || {
            ks.apply_traced(subject, &pack, &opts, &mut Tracer::disabled())
        }) else {
            return;
        };
        log.count("apply.attempts", f64::from(report.attempts));
        log.count("apply.sites", report.sites as f64);
        let mut plan: Vec<(&str, Vec<u64>)> = self
            .sweep
            .iter()
            .map(|(n, a)| (n.as_str(), a.clone()))
            .collect();
        for f in base.functions().filter(|f| int_only(f, 3)) {
            for pattern in [[2u64, 3, 5], [7, 1, 4]] {
                plan.push((&f.name, pattern[..f.params.len()].to_vec()));
            }
        }
        log.time("kernel.vm", || {
            for (name, args) in &plan {
                for k in kernels.iter_mut() {
                    let _ = traced_call(k, name, args, CALL_LIMIT);
                }
            }
        });
        log.time("eval.stress", || {
            for (k, &e) in kernels.iter_mut().zip(&entries) {
                let _ = k.call_at_limited(e, &[STRESS_ROUNDS], STRESS_LIMIT);
            }
        });
        log.time("eval.exploit", || {
            for k in kernels.iter_mut() {
                let _ = run_exploit(k, &self.prctl);
            }
        });
        log.time("kernel.diff_images", || {
            let wide = DiffOptions {
                max_deltas: usize::MAX,
                ..DiffOptions::default()
            };
            let _ = diff_images(&kernels[0], &kernels[1], &wide);
            let _ = diff_images(&kernels[0], &kernels[2], &DiffOptions::default());
        });
        let subject = &mut kernels[2];
        let _ = log.time("undo", || {
            ks.undo_traced(subject, id, &opts, &mut Tracer::disabled())
        });
        log.count("apply.commits", 1.0);
        for k in &kernels {
            count_kernel(log, k);
        }
    }
}

/// The second compiler version the oracle's calibration kernel uses.
fn cc2() -> Options {
    Options {
        cc_version: 2,
        ..Options::distro()
    }
}

/// Exported functions with at most `max` int parameters.
fn int_only(f: &ksplice_lang::Function, max: usize) -> bool {
    !f.is_static && f.params.len() <= max && f.params.iter().all(|(_, t)| matches!(t, Type::Int))
}
