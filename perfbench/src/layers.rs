//! The per-layer metric set and how a traced run's spans and counts
//! turn into it.

use std::collections::BTreeMap;

use ksplice_kernel::Kernel;

use crate::report::RunResult;
use crate::spans::SpanLog;

/// Every per-layer metric a traced run prints, with its unit. A layer
/// a workload never crosses reports 0 (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.build_ms", "ms"),
    ("lang.units_compiled", "count"),
    ("lang.cache_hit_ratio", "ratio"),
    ("lang.drift_ms", "ms"),
    ("patch.ms", "ms"),
    ("differ.ms", "ms"),
    ("differ.fns_changed", "count"),
    ("package.build_ms", "ms"),
    ("package.parse_ms", "ms"),
    ("create.latency_ms.p50", "ms"),
    ("create.latency_ms.p99", "ms"),
    ("kernel.boot_ms", "ms"),
    ("kernel.boots", "count"),
    ("kernel.vm_ms", "ms"),
    ("kernel.vm_steps", "count"),
    ("kernel.vm_steps_per_s", "1/s"),
    ("kernel.block_hit_ratio", "ratio"),
    ("kernel.icache_flushes", "count"),
    ("kernel.diff_images_ms", "ms"),
    ("kernel.insmod_ms", "ms"),
    ("runpre.ms", "ms"),
    ("runpre.bytes_matched", "count"),
    ("apply.ms", "ms"),
    ("apply.latency_ms.p50", "ms"),
    ("apply.latency_ms.p99", "ms"),
    ("apply.pause_us.p50", "us"),
    ("apply.pause_us.p99", "us"),
    ("apply.attempts_per_commit", "count"),
    ("apply.sites", "count"),
    ("undo.ms", "ms"),
    ("undo.latency_ms.p50", "ms"),
    ("eval.stress_ms", "ms"),
    ("eval.exploit_ms", "ms"),
    ("rebase.cell_ms", "ms"),
    ("rebase.reused_ratio", "ratio"),
    ("rebase.verify_ms", "ms"),
    ("fleet.transport_ms", "ms"),
    ("fleet.messages_sent", "count"),
    ("fleet.delivered_ratio", "ratio"),
    ("fleet.resends", "count"),
    ("fleet.queue_wait_ticks", "count"),
    ("fleet.contact_ms", "ms"),
    ("fleet.contacts", "count"),
    ("trace.overhead_pct", "%"),
    ("corpus.unattributed_ms", "ms"),
    ("fuzz.unattributed_ms", "ms"),
    ("fleet.unattributed_ms", "ms"),
    ("rebase.unattributed_ms", "ms"),
];

/// Span names whose self time is guest code running on the VM.
const VM_SPANS: &[&str] = &["kernel.vm", "eval.stress", "eval.exploit"];

/// Span name → the per-layer metric its self time feeds.
const SPAN_METRIC: &[(&str, &str)] = &[
    ("lang.build", "lang.build_ms"),
    ("lang.drift", "lang.drift_ms"),
    ("patch", "patch.ms"),
    ("differ", "differ.ms"),
    ("package.build", "package.build_ms"),
    ("package.parse", "package.parse_ms"),
    ("kernel.boot", "kernel.boot_ms"),
    ("kernel.vm", "kernel.vm_ms"),
    ("kernel.diff_images", "kernel.diff_images_ms"),
    ("kernel.insmod", "kernel.insmod_ms"),
    ("runpre", "runpre.ms"),
    ("apply", "apply.ms"),
    ("undo", "undo.ms"),
    ("eval.stress", "eval.stress_ms"),
    ("eval.exploit", "eval.exploit_ms"),
    ("rebase.cell", "rebase.cell_ms"),
    ("rebase.verify", "rebase.verify_ms"),
    ("fleet.transport", "fleet.transport_ms"),
    ("fleet.contact", "fleet.contact_ms"),
];

/// Per-layer values being assembled for one traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one metric (must be listed in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, v);
    }

    /// Sets every span-fed metric from `log`: each layer's summed self
    /// time divided by `per` (the op or replay count it is averaged
    /// over), the compile and VM counters likewise, and the ratios.
    /// Returns the summed self time of all layer spans per `per`.
    pub fn absorb_log(&mut self, log: &SpanLog, per: f64) -> f64 {
        let per = per.max(1.0);
        let by_name = log.self_ms_by_name();
        let mut layer_total = 0.0;
        for (span, metric) in SPAN_METRIC {
            if let Some(ms) = by_name.get(span) {
                self.set(metric, ms / per);
                layer_total += ms / per;
            }
        }
        let hits = log.counter("lang.cache_hits");
        let misses = log.counter("lang.units_compiled");
        if hits + misses > 0.0 {
            self.set("lang.units_compiled", misses / per);
            self.set("lang.cache_hit_ratio", hits / (hits + misses));
        }
        for name in [
            "differ.fns_changed",
            "kernel.boots",
            "kernel.icache_flushes",
            "runpre.bytes_matched",
            "apply.sites",
        ] {
            let v = log.counter(name);
            if v > 0.0 {
                self.set(name, v / per);
            }
        }
        let steps = log.counter("kernel.vm_steps");
        if steps > 0.0 {
            self.set("kernel.vm_steps", steps / per);
            let vm_ms: f64 = VM_SPANS.iter().filter_map(|s| by_name.get(s)).sum();
            if vm_ms > 0.0 {
                self.set("kernel.vm_steps_per_s", steps / (vm_ms / 1e3));
            }
        }
        let (bh, bd) = (
            log.counter("kernel.block_hits"),
            log.counter("kernel.blocks_decoded"),
        );
        if bh + bd > 0.0 {
            self.set("kernel.block_hit_ratio", bh / (bh + bd));
        }
        let commits = log.counter("apply.commits");
        if commits > 0.0 {
            self.set(
                "apply.attempts_per_commit",
                log.counter("apply.attempts") / commits,
            );
        }
        layer_total
    }

    /// Writes every [`PER_LAYER`] metric onto `result` (0 for a layer
    /// this workload never crossed).
    pub fn emit(&self, result: &mut RunResult) {
        for (name, unit) in PER_LAYER {
            result.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Counts a kernel's VM work (steps, block-cache traffic, icache
/// flushes) onto `log`; call once per kernel when it is dropped.
pub fn count_kernel(log: &mut SpanLog, k: &Kernel) {
    log.count("kernel.vm_steps", k.steps as f64);
    log.count("kernel.block_hits", k.vm_stats.block_hits as f64);
    log.count("kernel.blocks_decoded", k.vm_stats.blocks_decoded as f64);
    log.count("kernel.icache_flushes", k.vm_stats.icache_flushes as f64);
}

/// Counts one build's cache traffic onto `log`.
pub fn count_build(log: &mut SpanLog, stats: &ksplice_lang::BuildStats) {
    log.count("lang.cache_hits", stats.hits as f64);
    log.count("lang.units_compiled", stats.units_compiled() as f64);
}
