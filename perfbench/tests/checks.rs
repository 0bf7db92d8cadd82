//! The benchmark's own tests: every output check fires on a planted
//! fault, and the traced split adds up. Run them optimized:
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::time::Instant;

use ksplice_core::{create_update_cached, BuildCache, CreateOptions, RebaseStatus};
use ksplice_eval::{base_tree, corpus};
use ksplice_lang::DriftLog;
use ksplice_perfbench::report::RunResult;
use ksplice_perfbench::spans::{SpanLog, OP};
use ksplice_perfbench::{corpus as corpus_wl, fleet, fuzz, pipeline, rebase};

fn fresh() -> RunResult {
    RunResult {
        correct: true,
        ..RunResult::default()
    }
}

#[test]
fn wrong_expected_digest_is_caught() {
    let s = fuzz::Setup::new().expect("fuzz setup");
    let mut good = fresh();
    fuzz::check_digest(&s, fuzz::CANONICAL_DIGEST, &mut good);
    assert!(good.correct, "{:?}", good.notes);
    let mut bad = fresh();
    fuzz::check_digest(&s, fuzz::CANONICAL_DIGEST ^ 1, &mut bad);
    assert!(!bad.correct);
    assert!(
        bad.notes.iter().any(|n| n.contains("digest")),
        "{:?}",
        bad.notes
    );
}

#[test]
fn corrupted_pack_byte_is_refused_and_counted_failed() {
    let mut s = corpus_wl::Setup::new().expect("corpus setup");
    let cases = corpus();
    let idx = cases
        .iter()
        .position(|c| c.id == "CVE-2006-2451")
        .expect("prctl case");
    let clean = corpus_wl::lifecycles(&s, &[idx]);
    assert!(clean[0].errors.is_empty(), "{:?}", clean[0].errors);
    for byte in [0, 7, 100, 4_000] {
        s.corrupt_pack_byte = Some(byte);
        let ops = corpus_wl::lifecycles(&s, &[idx]);
        let mut r = fresh();
        corpus_wl::check(&s, &ops, &mut r);
        assert_eq!(
            (r.attempted, r.failed),
            (1, 1),
            "byte {byte}: {:?}",
            r.notes
        );
        assert!(
            ops[0].errors[0].contains("pack refused"),
            "{:?}",
            ops[0].errors
        );
    }
}

#[test]
fn poisoned_fleet_version_is_contained_and_counted_failed() {
    let shape = fleet::Shape {
        nodes: 48,
        versions: 3,
        poison: vec![2],
    };
    let (mut f, packset) = fleet::build(&shape, 7).expect("fleet");
    let r = fleet::rollout(&mut f, packset, 11, None).expect("rollout");
    assert_eq!(r.outcome, ksplice_fleet::Outcome::Contained);
    let mut result = fresh();
    fleet::check(&[r], &mut result);
    assert_eq!((result.attempted, result.failed), (1, 1));

    let clean = fleet::Shape {
        poison: Vec::new(),
        ..shape
    };
    let (mut f, packset) = fleet::build(&clean, 7).expect("fleet");
    let r = fleet::rollout(&mut f, packset, 11, None).expect("rollout");
    assert!(r.errors().is_empty(), "{:?}", r.errors());
    assert_eq!(r.latency.len(), 48);
}

#[test]
fn misport_and_unclassified_cells_are_caught() {
    let cases = corpus();
    let case = cases
        .iter()
        .find(|c| c.id == "CVE-2007-2875")
        .expect("case");
    let mut log = DriftLog::default();
    log.deleted
        .push(("kernel/exit.kc".into(), "roundup4".into()));
    let errs = rebase::grade(case, &log, RebaseStatus::AutoPorted, &[], &[], true);
    assert!(errs.iter().any(|e| e.contains("misport")), "{errs:?}");
    let errs = rebase::grade(
        case,
        &DriftLog::default(),
        RebaseStatus::ManualFixNeeded,
        &[],
        &[],
        false,
    );
    assert!(errs.iter().any(|e| e.contains("classified")), "{errs:?}");
    let errs = rebase::grade(
        case,
        &DriftLog::default(),
        RebaseStatus::AutoPorted,
        &[],
        &[],
        true,
    );
    assert!(errs.is_empty(), "{errs:?}");
}

#[test]
fn reference_matrix_ports_224_of_256() {
    let s = rebase::Setup::new().expect("rebase setup");
    let mut r = fresh();
    rebase::check_reference(&s, &mut r).expect("reference matrix");
    assert!(r.correct && r.failed == 0, "{:?}", r.notes);
    assert_eq!(r.attempted, 256);
}

#[test]
fn spelled_out_create_matches_create_update_byte_for_byte() {
    let base = base_tree();
    let origin = Instant::now();
    for case in corpus() {
        let opts = CreateOptions {
            accept_data_changes: case.needs_custom_code(),
            ..CreateOptions::default()
        };
        let text = case.full_patch_text();
        let (pack, _) = create_update_cached(case.id, &base, &text, &opts, &BuildCache::new())
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        let mut log = SpanLog::new(origin);
        let bytes =
            pipeline::create_traced(&mut log, case.id, &base, &text, &opts, &BuildCache::new())
                .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        assert_eq!(bytes, pack.to_bytes(), "{}", case.id);
    }
}

/// On traced corpus ops the layer self times plus the unattributed
/// remainder sum to the traced op time. Self time is exact interval
/// arithmetic, so the stated tolerance (0.1 %) only absorbs float
/// rounding; layer spans must also cover at least 90 % of op time.
#[test]
fn traced_corpus_split_adds_up_to_op_time() {
    let s = corpus_wl::Setup::new().expect("corpus setup");
    let mut log = SpanLog::new(Instant::now());
    let all: Vec<usize> = (0..s.len()).collect();
    let ops = corpus_wl::traced_lifecycles(&s, &all, &mut log);
    let mut r = fresh();
    corpus_wl::check(&s, &ops, &mut r);
    assert_eq!(r.failed, 0, "{:?}", r.notes);
    assert!(r.correct, "{:?}", r.notes);
    assert!(log.well_nested());
    let (n, op_ms) = log.ops();
    assert_eq!(n, s.len());
    let by_name = log.self_ms_by_name();
    let unattributed = by_name[OP];
    let layers: f64 = by_name
        .iter()
        .filter(|(k, _)| **k != OP)
        .map(|(_, v)| v)
        .sum();
    assert!(
        ((layers + unattributed) - op_ms).abs() <= op_ms * 1e-3,
        "layers {layers} + unattributed {unattributed} vs op {op_ms}"
    );
    assert!(
        unattributed <= op_ms * 0.1,
        "unattributed {unattributed} of {op_ms}"
    );
    for layer in [
        "lang.build",
        "patch",
        "differ",
        "package.build",
        "package.parse",
        "kernel.boot",
        "apply",
        "undo",
        "eval.stress",
        "eval.exploit",
    ] {
        assert!(
            by_name.get(layer).is_some_and(|v| *v > 0.0),
            "{layer} not recorded"
        );
    }
}
