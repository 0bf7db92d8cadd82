//! `ksplice-create` and the apply-time module loads, spelled out as the
//! public calls they are made of so a traced run can put a span around
//! each layer. The result is the same pack `create_update_cached`
//! builds (a test holds the two byte-identical over the corpus).

use std::collections::BTreeMap;

use ksplice_core::{
    apply_patch_to_tree, build_packs, diff_builds, match_unit, BuildCache, CreateError,
    CreateOptions, UpdatePack,
};
use ksplice_fleet::fnv1a;
use ksplice_kernel::Kernel;
use ksplice_lang::{build_tree_cached, build_tree_image_cached, Options, SourceTree};
use ksplice_patch::Patch;

use crate::layers::count_build;
use crate::spans::SpanLog;

/// `create_update_cached` as spans — patch parse, pre build, patch
/// apply, post build, differ, package — returning the serialized pack.
pub fn create_traced(
    log: &mut SpanLog,
    id: &str,
    source: &SourceTree,
    patch_text: &str,
    opts: &CreateOptions,
    cache: &BuildCache,
) -> Result<Vec<u8>, CreateError> {
    let patch = log
        .time("patch", || Patch::parse(patch_text))
        .map_err(CreateError::PatchParse)?;
    let build_opts = opts.build_options.clone().unwrap_or_else(Options::pre_post);
    let (pre, pre_stats) = log
        .time("lang.build", || {
            build_tree_image_cached(source, &build_opts, cache)
        })
        .map_err(|error| CreateError::Compile {
            phase: "pre",
            error,
        })?;
    count_build(log, &pre_stats);
    let patched = log.time("patch", || apply_patch_to_tree(source, &patch))?;
    let (post, post_stats) = log
        .time("lang.build", || {
            build_tree_cached(&patched, &build_opts, cache)
        })
        .map_err(|error| CreateError::Compile {
            phase: "post",
            error,
        })?;
    count_build(log, &post_stats);
    let diff = log.time("differ", || diff_builds(&pre, &post));
    log.count("differ.fns_changed", diff.changed_fn_count() as f64);
    if diff.affected().count() == 0 {
        return Err(CreateError::NoEffect);
    }
    let changes: Vec<_> = diff
        .data_changes()
        .map(|(u, c)| (u.to_string(), c.clone()))
        .collect();
    if !changes.is_empty() && !opts.accept_data_changes {
        return Err(CreateError::DataSemantics { changes });
    }
    Ok(log.time("package.build", || {
        build_packs(id, &pre, &post, &diff).to_bytes()
    }))
}

/// The receiving end of a shipped pack: verify the FNV-1a checksum the
/// sender computed (the fleet's pack-integrity check), then parse.
pub fn receive(bytes: &[u8], checksum: u64) -> Result<UpdatePack, String> {
    if fnv1a(bytes) != checksum {
        return Err("pack refused: checksum mismatch".into());
    }
    UpdatePack::parse(bytes).map_err(|e| format!("pack refused: {e}"))
}

/// The load and run-pre stages of `ksplice-apply`, replayed on `kernel`
/// through the same public calls: load every helper module (hidden from
/// kallsyms), match each unit's pre code against the running kernel,
/// load every primary module. The modules are unloaded again, so the
/// kernel's text is back to what it was. Returns the bytes matched.
pub fn replay_load_and_match(
    log: &mut SpanLog,
    kernel: &mut Kernel,
    pack: &UpdatePack,
) -> Result<u64, String> {
    let mut loaded = Vec::new();
    let mut matched = 0u64;
    for (i, up) in pack.units.iter().enumerate() {
        let mut helper = up.helper.clone();
        helper.name = format!("perfbench_helper_{i}");
        log.time("kernel.insmod", || kernel.insmod_with(&helper, true, false))
            .map_err(|e| format!("helper load: {e}"))?;
        loaded.push(helper.name);
        let m = log
            .time("runpre", || {
                match_unit(kernel, &up.helper, &BTreeMap::new())
            })
            .map_err(|e| format!("run-pre: {e}"))?;
        matched += m.fn_addrs.values().map(|f| f.run_len).sum::<u64>();
    }
    for (i, up) in pack.units.iter().enumerate() {
        let mut primary = up.primary.clone();
        primary.name = format!("perfbench_primary_{i}");
        log.time("kernel.insmod", || kernel.insmod_with(&primary, true, true))
            .map_err(|e| format!("primary load: {e}"))?;
        loaded.push(primary.name);
    }
    for name in loaded.iter().rev() {
        kernel.rmmod(name);
    }
    log.count("runpre.bytes_matched", matched as f64);
    Ok(matched)
}
