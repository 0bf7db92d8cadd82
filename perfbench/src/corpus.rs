//! `corpus`: one op is one full lifecycle of one §6 CVE — a cold
//! `ksplice-create` (fresh `BuildCache`, so both whole-tree builds are
//! paid), shipping the pack as bytes, then on a kernel booted from the
//! prebuilt distro image: exploit, apply, stress, exploit, undo.
//!
//! Checks (references fixed by the paper and the corpus metadata, not by
//! the measured run): the plain patch creates for every CVE except the
//! seven Table-1 data-init CVEs, which are refused with a data-semantics
//! error; the tallies come out 56/64 without new code and 64/64 in
//! total; 4/4 exploits work before and fail after; stress passes; after
//! every undo the text checksum equals the one read just before apply.

use std::time::Instant;

use ksplice_core::{
    create_update_cached, ApplyOptions, BuildCache, CreateError, CreateOptions, Ksplice, Tracer,
};
use ksplice_eval::stress::load_stress_cached;
use ksplice_eval::{base_tree, corpus, run_exploit, run_stress, CustomReason, Cve};
use ksplice_fleet::fnv1a;
use ksplice_kernel::Kernel;
use ksplice_lang::{build_tree_image_cached, Options, SourceTree};
use ksplice_object::ObjectSet;

use crate::layers::{count_kernel, Layers};
use crate::pipeline::{create_traced, receive, replay_load_and_match};
use crate::report::{end_to_end, window_rate, RunResult, Samples, P99_MIN_SAMPLES, RATE_WINDOW_S};
use crate::seed::Rng;
use crate::spans::SpanLog;
use crate::{closed_loop, timed_setup, RunArgs, CLIENTS, SETUP_REPEATS};

/// Stress rounds run between apply and undo.
const STRESS_ROUNDS: u64 = 2;
/// Applies whose load and run-pre stages a traced run replays.
const REPLAYS: u32 = 64;

/// §6 reference tallies.
pub const WITHOUT_NEW_CODE: usize = 56;
/// CVEs the evaluation applies in total.
pub const TOTAL: usize = 64;
/// CVEs with a working exploit.
pub const EXPLOITS: usize = 4;
/// Table-1 CVEs whose plain patch changes data initialisers.
pub const DATA_INIT: usize = 7;

/// Shared, read-only state every op starts from.
pub struct Setup {
    base: SourceTree,
    image: ObjectSet,
    /// Holds only the stress module's object, so loading it does not
    /// recompile; never used for create.
    stress_cache: BuildCache,
    cases: Vec<Cve>,
    plain: Vec<String>,
    full: Vec<String>,
    /// Fault injection for the benchmark's own tests: flip this byte
    /// (modulo the length) of every shipped pack after its checksum.
    pub corrupt_pack_byte: Option<usize>,
}

impl Setup {
    /// Builds the distro boot image and proves the unpatched kernel
    /// passes the stress test.
    pub fn new() -> Result<Setup, String> {
        let base = base_tree();
        let (image, _) = build_tree_image_cached(&base, &Options::distro(), &BuildCache::new())
            .map_err(|e| format!("distro image: {e}"))?;
        let stress_cache = BuildCache::new();
        let mut kernel = Kernel::boot_image(&image).map_err(|e| format!("boot: {e}"))?;
        let entry = load_stress_cached(&mut kernel, &stress_cache)?;
        run_stress(&mut kernel, entry, STRESS_ROUNDS).map_err(|e| format!("baseline {e}"))?;
        let cases = corpus();
        let plain = cases.iter().map(Cve::patch_text).collect();
        let full = cases.iter().map(Cve::full_patch_text).collect();
        Ok(Setup {
            base,
            image,
            stress_cache,
            cases,
            plain,
            full,
            corrupt_pack_byte: None,
        })
    }

    /// Number of CVEs.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// True for an empty corpus.
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }
}

/// What the plain (no custom code) patch must do at create time.
fn plain_must_create(case: &Cve) -> bool {
    !matches!(&case.custom, Some(c) if c.reason == CustomReason::ChangesDataInit)
}

/// One lifecycle's observations.
#[derive(Debug, Clone, Default)]
pub struct Lifecycle {
    /// Corpus index.
    pub case: usize,
    /// Whole-lifecycle wall time (ms).
    pub total_ms: f64,
    /// Create phase: every `ksplice-create` the CVE needs (ms).
    pub create_ms: f64,
    /// `apply_traced` wall time (ms).
    pub apply_ms: f64,
    /// `ApplyReport.pause` (µs).
    pub pause_us: f64,
    /// Undo wall time (ms).
    pub undo_ms: f64,
    /// The plain patch created without programmer involvement.
    pub plain_created: bool,
    /// Exploit verdicts before/after (None without an exploit).
    pub exploit: Option<(bool, bool)>,
    /// Every per-op check that failed.
    pub errors: Vec<String>,
}

/// How the op records layer spans: not at all, or on a log.
enum Mode<'a> {
    Plain,
    Traced(&'a mut SpanLog),
}

impl Mode<'_> {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self {
            Mode::Plain => f(),
            Mode::Traced(log) => log.time(name, f),
        }
    }
}

/// Runs one create and returns the serialized pack: through
/// `create_update_cached` when untraced, through the spelled-out
/// pipeline when traced.
fn create(
    mode: &mut Mode<'_>,
    id: &str,
    source: &SourceTree,
    text: &str,
    opts: &CreateOptions,
    cache: &BuildCache,
) -> Result<Vec<u8>, CreateError> {
    match mode {
        Mode::Plain => {
            create_update_cached(id, source, text, opts, cache).map(|(p, _)| p.to_bytes())
        }
        Mode::Traced(log) => create_traced(log, id, source, text, opts, cache),
    }
}

/// One CVE lifecycle against `s`.
fn lifecycle(s: &Setup, idx: usize, mut mode: Mode<'_>) -> Lifecycle {
    let t0 = Instant::now();
    let mut out = Lifecycle {
        case: idx,
        ..Lifecycle::default()
    };
    if let Err(e) = lifecycle_steps(s, idx, &mut mode, &mut out) {
        out.errors.push(e);
    }
    out.total_ms = t0.elapsed().as_secs_f64() * 1e3;
    if !out.errors.is_empty() {
        let id = s.cases[idx].id;
        out.errors
            .iter_mut()
            .for_each(|e| *e = format!("{id}: {e}"));
    }
    out
}

fn lifecycle_steps(
    s: &Setup,
    idx: usize,
    mode: &mut Mode<'_>,
    out: &mut Lifecycle,
) -> Result<(), String> {
    let case = &s.cases[idx];
    let mut kernel = mode
        .time("kernel.boot", || Kernel::boot_image(&s.image))
        .map_err(|e| format!("boot: {e}"))?;
    if let Mode::Traced(log) = mode {
        log.count("kernel.boots", 1.0);
    }
    let stress = mode.time("eval.stress", || {
        load_stress_cached(&mut kernel, &s.stress_cache)
    })?;
    let before = mode.time("eval.exploit", || run_exploit(&mut kernel, case));

    // ksplice-create, cold: a fresh cache per lifecycle.
    let t = Instant::now();
    let cold = BuildCache::new();
    let plain = create(
        mode,
        case.id,
        &s.base,
        &s.plain[idx],
        &CreateOptions::default(),
        &cold,
    );
    out.plain_created = plain.is_ok();
    match (&plain, plain_must_create(case)) {
        (Ok(_), true) => {}
        (Err(CreateError::DataSemantics { .. }), false) => {}
        (Ok(_), false) => out
            .errors
            .push("plain data-init patch was not refused".into()),
        (Err(e), _) => out.errors.push(format!("plain create: {e}")),
    }
    let mut bytes = if case.needs_custom_code() {
        let opts = CreateOptions {
            accept_data_changes: true,
            ..CreateOptions::default()
        };
        create(mode, case.id, &s.base, &s.full[idx], &opts, &cold)
    } else {
        plain
    }
    .map_err(|e| format!("create: {e}"))?;
    out.create_ms = t.elapsed().as_secs_f64() * 1e3;

    // Ship the pack as bytes with its checksum, as `ksplice create
    // --out` and a fleet delivery do; the kernel side verifies and parses.
    let checksum = fnv1a(&bytes);
    if let Some(i) = s.corrupt_pack_byte {
        let i = i % bytes.len();
        bytes[i] ^= 0x5a;
    }
    let pack = mode.time("package.parse", || receive(&bytes, checksum))?;

    let text_before = kernel.mem.text_checksum();
    let opts = ApplyOptions::default();
    let mut ks = Ksplice::new();
    let t = Instant::now();
    let report = mode
        .time("apply", || {
            ks.apply_traced(&mut kernel, &pack, &opts, &mut Tracer::disabled())
        })
        .map_err(|e| format!("apply: {e}"))?;
    out.apply_ms = t.elapsed().as_secs_f64() * 1e3;
    out.pause_us = report.pause.as_secs_f64() * 1e6;
    if let Mode::Traced(log) = mode {
        log.count("apply.commits", 1.0);
        log.count("apply.attempts", f64::from(report.attempts));
        log.count("apply.sites", report.sites as f64);
    }
    if let Err(e) = mode.time("eval.stress", || {
        run_stress(&mut kernel, stress, STRESS_ROUNDS)
    }) {
        out.errors.push(format!("stress after apply: {e}"));
    }
    let after = mode.time("eval.exploit", || run_exploit(&mut kernel, case));
    let t = Instant::now();
    mode.time("undo", || {
        ks.undo_traced(&mut kernel, case.id, &opts, &mut Tracer::disabled())
    })
    .map_err(|e| format!("undo: {e}"))?;
    out.undo_ms = t.elapsed().as_secs_f64() * 1e3;
    if kernel.mem.text_checksum() != text_before {
        out.errors
            .push("text checksum after undo differs from pre-apply".into());
    }
    match (case.exploit.is_some(), before, after) {
        (false, None, None) => {}
        (true, Some(b), Some(a)) => {
            out.exploit = Some((b, a));
            if !b || a {
                out.errors
                    .push(format!("exploit before={b} after={a}, want true/false"));
            }
        }
        _ => out
            .errors
            .push("exploit verdicts inconsistent with the corpus".into()),
    }
    if let Mode::Traced(log) = mode {
        count_kernel(log, &kernel);
    }
    Ok(())
}

/// The CVE of op `i` among `n`: seed-shuffled passes over the corpus,
/// each pass a fresh shuffle.
pub fn cve_at(n: usize, seed: u64, i: u64) -> usize {
    let (pass, pos) = (i / n as u64, (i % n as u64) as usize);
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed ^ pass, "cve-order").shuffle(&mut order);
    order[pos]
}

/// The §6 tallies over every CVE that ran at least once.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// CVEs seen.
    pub cves: usize,
    /// Applied with the plain patch and no custom code.
    pub without_new_code: usize,
    /// Applied in total.
    pub total: usize,
    /// Plain patches refused for changing data initialisers.
    pub data_init_refused: usize,
    /// Exploits that worked before and failed after.
    pub exploits_defeated: usize,
}

/// Tallies the lifecycles against the corpus; `cases` gives the
/// metadata. A CVE counts once, from its first lifecycle; the per-op
/// checks already hold every repetition to the same verdicts.
pub fn tally(cases: &[Cve], ops: &[Lifecycle]) -> Tally {
    let mut seen = vec![false; cases.len()];
    let mut t = Tally::default();
    for op in ops {
        if std::mem::replace(&mut seen[op.case], true) {
            continue;
        }
        let case = &cases[op.case];
        t.cves += 1;
        if op.errors.is_empty() {
            t.total += 1;
            if op.plain_created && !case.needs_custom_code() {
                t.without_new_code += 1;
            }
            if !op.plain_created && !plain_must_create(case) {
                t.data_init_refused += 1;
            }
            if op.exploit == Some((true, false)) {
                t.exploits_defeated += 1;
            }
        }
    }
    t
}

/// Checks a tally against the paper's §6 numbers.
pub fn check_tally(t: &Tally) -> Vec<String> {
    let mut errs = Vec::new();
    let want = [
        ("CVEs run", t.cves, TOTAL),
        (
            "applied without new code",
            t.without_new_code,
            WITHOUT_NEW_CODE,
        ),
        ("applied in total", t.total, TOTAL),
        (
            "data-init plain patches refused",
            t.data_init_refused,
            DATA_INIT,
        ),
        ("exploits defeated", t.exploits_defeated, EXPLOITS),
    ];
    for (what, got, want) in want {
        if got != want {
            errs.push(format!("{what}: {got}, want {want}"));
        }
    }
    errs
}

/// Runs the untraced closed loop for `budget`; at least `min_ops` ops.
fn run_plain(
    s: &Setup,
    seed: u64,
    budget: std::time::Duration,
    min_ops: u64,
) -> (Vec<Lifecycle>, f64, Vec<f64>) {
    let (states, wall, ends) = closed_loop(
        CLIENTS,
        budget,
        min_ops,
        None,
        |_| Vec::new(),
        |ops: &mut Vec<Lifecycle>, i| ops.push(lifecycle(s, cve_at(s.len(), seed, i), Mode::Plain)),
    );
    let mut ops: Vec<Lifecycle> = states.into_iter().flatten().collect();
    ops.sort_by_key(|o| o.case);
    (ops, wall.as_secs_f64(), ends)
}

/// Runs the lifecycles of `indices` one after another, untraced.
pub fn lifecycles(s: &Setup, indices: &[usize]) -> Vec<Lifecycle> {
    indices
        .iter()
        .map(|&i| lifecycle(s, i, Mode::Plain))
        .collect()
}

/// Runs the lifecycles of `indices` one after another as traced ops
/// (op id = position) on `log`.
pub fn traced_lifecycles(s: &Setup, indices: &[usize], log: &mut SpanLog) -> Vec<Lifecycle> {
    indices
        .iter()
        .enumerate()
        .map(|(n, &i)| log.op(n as u64, |log| lifecycle(s, i, Mode::Traced(log))))
        .collect()
}

/// Folds checks into `result`: failed ops and the §6 tallies.
pub fn check(s: &Setup, ops: &[Lifecycle], result: &mut RunResult) {
    result.attempted += ops.len() as u64;
    for op in ops.iter().filter(|o| !o.errors.is_empty()) {
        result.failed += 1;
        if result.notes.len() < 20 {
            result.note(format!("failed op: {}", op.errors.join("; ")));
        }
    }
    for e in check_tally(&tally(&s.cases, ops)) {
        result.correct = false;
        result.note(format!("tally mismatch: {e}"));
    }
}

fn latencies(ops: &[Lifecycle], f: impl Fn(&Lifecycle) -> f64) -> Samples {
    let mut s = Samples::default();
    ops.iter().for_each(|o| s.push(f(o)));
    s
}

/// The `corpus` workload.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let (setup_s, s) = timed_setup(SETUP_REPEATS, Setup::new)?;
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    result.note(format!("clients: {CLIENTS}"));
    if !args.trace {
        let (ops, wall, ends) = run_plain(&s, args.seed, args.seconds, P99_MIN_SAMPLES as u64);
        check(&s, &ops, &mut result);
        let item = latencies(&ops, |o| o.total_ms);
        result.note(format!(
            "ops: {} in {wall:.3} s; whole-run rate {:.4}/s",
            ops.len(),
            ops.len() as f64 / wall
        ));
        for (name, samples) in [
            ("create_ms", latencies(&ops, |o| o.create_ms)),
            ("apply_ms", latencies(&ops, |o| o.apply_ms)),
            ("pause_us", latencies(&ops, |o| o.pause_us)),
            ("undo_ms", latencies(&ops, |o| o.undo_ms)),
        ] {
            result.note(format!(
                "{name}: p50 {} p99 {} ({} beyond p99)",
                samples.p50(),
                samples.p99(),
                samples.beyond(0.99)
            ));
        }
        let t = tally(&s.cases, &ops);
        let quality = t.without_new_code as f64 / TOTAL as f64;
        let rate = window_rate(&ends, wall, RATE_WINDOW_S);
        end_to_end(&mut result, setup_s, rate, &item, quality);
        return Ok(result);
    }
    run_traced(args, &s, result)
}

/// The traced run: an untraced phase (the overhead baseline and the
/// create/apply/pause/undo latency distributions), a traced phase over
/// the same op sequence, then a replay of apply's load and run-pre
/// stages for a seeded sample of CVEs.
fn run_traced(args: &RunArgs, s: &Setup, mut result: RunResult) -> Result<RunResult, String> {
    let third = args.seconds / 3;
    let (plain_ops, _, _) = run_plain(s, args.seed, third, P99_MIN_SAMPLES as u64);
    check(s, &plain_ops, &mut result);
    let origin = Instant::now();
    let (states, _, _) = closed_loop(
        CLIENTS,
        third,
        s.len() as u64,
        None,
        |_| (SpanLog::new(origin), Vec::new()),
        |(log, ops): &mut (SpanLog, Vec<Lifecycle>), i| {
            let idx = cve_at(s.len(), args.seed, i);
            let op = log.op(i, |log| lifecycle(s, idx, Mode::Traced(log)));
            ops.push(op);
        },
    );
    let mut log = SpanLog::new(origin);
    let mut traced_ops = Vec::new();
    for (l, ops) in states {
        log.absorb(l);
        traced_ops.extend(ops);
    }
    check(s, &traced_ops, &mut result);

    let mut layers = Layers::default();
    let (n_ops, op_ms) = log.ops();
    let per = n_ops as f64;
    let layer_ms = layers.absorb_log(&log, per);
    layers.set("corpus.unattributed_ms", op_ms / per - layer_ms);
    let untraced = latencies(&plain_ops, |o| o.total_ms).p50();
    let traced = latencies(&traced_ops, |o| o.total_ms).p50();
    layers.set("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
    for (name, pick, q) in [
        ("create.latency_ms.p50", 0usize, 0.5),
        ("create.latency_ms.p99", 0, 0.99),
        ("apply.latency_ms.p50", 1, 0.5),
        ("apply.latency_ms.p99", 1, 0.99),
        ("apply.pause_us.p50", 2, 0.5),
        ("apply.pause_us.p99", 2, 0.99),
        ("undo.latency_ms.p50", 3, 0.5),
    ] {
        let f = |o: &Lifecycle| [o.create_ms, o.apply_ms, o.pause_us, o.undo_ms][pick];
        layers.set(name, latencies(&plain_ops, f).quantile(q));
    }

    // Apply's load and run-pre stages are inside `apply_traced`; replay
    // them through the same public calls for a seeded sample of CVEs.
    let mut replay = SpanLog::new(origin);
    let mut rng = Rng::new(args.seed, "corpus-replay");
    for r in 0..u64::from(REPLAYS) {
        let idx = rng.below(s.len() as u64) as usize;
        let case = &s.cases[idx];
        let text = if case.needs_custom_code() {
            &s.full[idx]
        } else {
            &s.plain[idx]
        };
        let opts = CreateOptions {
            accept_data_changes: case.needs_custom_code(),
            ..CreateOptions::default()
        };
        let (pack, _) = create_update_cached(case.id, &s.base, text, &opts, &BuildCache::new())
            .map_err(|e| format!("{}: replay create: {e}", case.id))?;
        let mut kernel = Kernel::boot_image(&s.image).map_err(|e| format!("boot: {e}"))?;
        replay
            .op(r, |log| replay_load_and_match(log, &mut kernel, &pack))
            .map_err(|e| format!("{}: replay: {e}", case.id))?;
    }
    let per_replay = f64::from(REPLAYS);
    layers.set(
        "kernel.insmod_ms",
        replay.self_ms("kernel.insmod") / per_replay,
    );
    layers.set("runpre.ms", replay.self_ms("runpre") / per_replay);
    layers.set(
        "runpre.bytes_matched",
        replay.counter("runpre.bytes_matched") / per_replay,
    );

    log.absorb(replay);
    write_trace(&log, "corpus", args.seed);
    result.note(format!(
        "traced ops: {n_ops}; untraced ops: {}; replays: {REPLAYS}",
        plain_ops.len()
    ));
    result.note(format!(
        "partition: op {:.6} ms = layers {:.6} ms + unattributed {:.6} ms",
        op_ms / per,
        layer_ms,
        op_ms / per - layer_ms
    ));
    layers.emit(&mut result);
    Ok(result)
}

/// Writes the run's spans under `.bench_trace/` in the working
/// directory; a failure to write is reported, not fatal.
pub fn write_trace(log: &SpanLog, workload: &str, seed: u64) {
    let path = std::path::Path::new(".bench_trace").join(format!("{workload}-{seed}.jsonl"));
    if let Err(e) = log.write_jsonl(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}
