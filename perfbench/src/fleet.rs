//! `fleet`: one op is one staged rollout of CVE-2006-2451 over 10 000
//! non-resident nodes on 3 base versions, through a `SimTransport` with
//! `drop:20,dup:10,delay:1..2`, canary 8 and growth 8. Node and
//! transport seeds derive from the workload seed.
//!
//! Every message passes through [`Observed`], the benchmark's own
//! decorator over the public `Transport` trait: it times the transport,
//! counts resends and queue wait, and takes each node's deliver-to-ack
//! latency (first Deliver sent → its Committed report handed to the
//! orchestrator), which is the per-item latency of this workload.
//!
//! Checks: the rollout ends `Outcome::Committed`, and the commits equal
//! the node count (every node acknowledged exactly once as committed).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ksplice_core::{HealthProbe, Tracer, UpdateManager, UpdatePack, WatchPolicy};
use ksplice_fleet::{
    build_packset, fnv1a, version_tree, Endpoint, Envelope, Fleet, FleetConfig, NetFaults, NodeId,
    Outcome, PackSet, Payload, RolloutOrchestrator, RolloutPolicy, SimTransport, Transport,
    TransportStats, Verdict,
};
use ksplice_kernel::Kernel;
use ksplice_lang::{build_tree_image_cached, Options};

use crate::corpus::write_trace;
use crate::layers::{count_kernel, Layers};
use crate::report::{end_to_end, RunResult, Samples};
use crate::seed::derive;
use crate::spans::{time_on, SpanLog};
use crate::{timed_setup, workers, RunArgs, SETUP_REPEATS};

/// The update rolled out.
pub const UPDATE: &str = "cve-2006-2451";
/// The transport fault plan.
pub const FAULTS: &str = "drop:20,dup:10,delay:1..2";

/// Fleet shape of one op.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Nodes in the fleet.
    pub nodes: u32,
    /// Base versions cycled across nodes.
    pub versions: usize,
    /// Base versions that get the poisoned build.
    pub poison: Vec<usize>,
}

impl Shape {
    /// The workload's shape: 10 000 nodes on 3 base versions.
    pub fn workload() -> Shape {
        Shape {
            nodes: 10_000,
            versions: 3,
            poison: Vec::new(),
        }
    }
}

/// `Fleet::new` plus `build_packset` for one op.
pub fn build(shape: &Shape, node_seed: u64) -> Result<(Fleet, PackSet), String> {
    let cfg = FleetConfig {
        nodes: shape.nodes,
        versions: shape.versions,
        seed: node_seed,
        ..FleetConfig::default()
    };
    let fleet = Fleet::new(cfg)?;
    let packset = build_packset(
        UPDATE,
        shape.versions,
        &shape.poison,
        fleet.context().cache(),
    )?;
    Ok((fleet, packset))
}

/// The transport decorator: forwards to the inner transport and
/// observes every message.
pub struct Observed<'a, T: Transport> {
    inner: T,
    log: Option<&'a mut SpanLog>,
    first_deliver: HashMap<NodeId, Instant>,
    committed: HashMap<NodeId, u32>,
    /// Deliver-to-ack latency of each committed node (ms).
    pub latency: Samples,
    /// Deliver messages beyond a node's first.
    pub resends: u64,
    /// Σ over ticks of messages still queued after the tick's poll.
    pub queue_wait_ticks: u64,
    /// Node-bound messages handed out (node contacts).
    pub contacts: u64,
    /// stop_machine attempts summed over Committed acks.
    pub attempts: u64,
    /// Committed acks received (a duplicated ack counts again, with
    /// the same attempts, so the per-ack mean is unaffected).
    pub committed_acks: u64,
}

impl<'a, T: Transport> Observed<'a, T> {
    /// Wraps `inner`; with a log, transport calls become spans.
    pub fn new(inner: T, log: Option<&'a mut SpanLog>) -> Self {
        Observed {
            inner,
            log,
            first_deliver: HashMap::new(),
            committed: HashMap::new(),
            latency: Samples::default(),
            resends: 0,
            queue_wait_ticks: 0,
            contacts: 0,
            attempts: 0,
            committed_acks: 0,
        }
    }

    /// Nodes acknowledged as committed.
    pub fn commits(&self) -> usize {
        self.committed.len()
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let inner = &mut self.inner;
        time_on(self.log.as_deref_mut(), "fleet.transport", || f(inner))
    }
}

impl<T: Transport> Transport for Observed<'_, T> {
    fn send(&mut self, env: Envelope) {
        if let (Endpoint::Node(id), Payload::Deliver { .. }) = (env.to, &env.payload) {
            match self.first_deliver.entry(id) {
                // The first send stays the latency origin.
                std::collections::hash_map::Entry::Occupied(_) => self.resends += 1,
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(Instant::now());
                }
            }
        }
        self.timed(|t| t.send(env));
    }

    fn poll(&mut self, now: u64) -> Vec<Envelope> {
        let out = self.timed(|t| t.poll(now));
        self.queue_wait_ticks += self.inner.in_flight() as u64;
        for env in &out {
            match (env.from, env.to, &env.payload) {
                (_, Endpoint::Node(_), _) => self.contacts += 1,
                (Endpoint::Node(id), Endpoint::Orchestrator, Payload::Report { verdict, .. }) => {
                    // A lost Committed ack is answered, after a resend,
                    // by AlreadyApplied: either is the node's commit ack.
                    match verdict {
                        Verdict::Committed { attempts, .. } => {
                            self.attempts += u64::from(*attempts);
                            self.committed_acks += 1;
                        }
                        Verdict::AlreadyApplied => {}
                        _ => continue,
                    }
                    let acks = self.committed.entry(id).or_insert(0);
                    *acks += 1;
                    if *acks == 1 {
                        if let Some(t) = self.first_deliver.get(&id) {
                            self.latency.push_ms(t.elapsed());
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// One rollout's observations.
#[derive(Debug, Clone)]
pub struct Rollout {
    /// How the rollout ended.
    pub outcome: Outcome,
    /// Nodes in the fleet.
    pub nodes: u32,
    /// Nodes acknowledged as committed, as the transport saw it.
    pub commits: usize,
    /// Committed members summed over the report's wave rows.
    pub reported_commits: usize,
    /// Rollout wall time (orchestrator plan + run).
    pub wall: Duration,
    /// Deliver-to-ack latencies (ms).
    pub latency: Samples,
    /// Transport counters.
    pub stats: TransportStats,
    /// Deliver resends.
    pub resends: u64,
    /// Σ queued messages over ticks.
    pub queue_wait_ticks: u64,
    /// Node contacts.
    pub contacts: u64,
    /// stop_machine attempts summed over Committed acks.
    pub attempts: u64,
    /// Committed acks received.
    pub committed_acks: u64,
}

impl Rollout {
    /// The op's output check: committed, and every node acknowledged a
    /// commit (the transport may duplicate an ack; a node counts once).
    pub fn errors(&self) -> Vec<String> {
        let mut e = Vec::new();
        if self.outcome != Outcome::Committed {
            e.push(format!("rollout ended {}", self.outcome.name()));
        }
        if self.commits != self.nodes as usize {
            e.push(format!(
                "{} of {} nodes acknowledged a commit",
                self.commits, self.nodes
            ));
        }
        if self.reported_commits != self.nodes as usize {
            e.push(format!(
                "report counts {} of {} nodes committed",
                self.reported_commits, self.nodes
            ));
        }
        e
    }
}

/// Runs one rollout of `packset` over `fleet`.
pub fn rollout(
    fleet: &mut Fleet,
    packset: PackSet,
    transport_seed: u64,
    log: Option<&mut SpanLog>,
) -> Result<Rollout, String> {
    let policy = RolloutPolicy {
        canary: 8,
        growth: 8,
        jobs: workers(),
        ..RolloutPolicy::default()
    };
    let inner = SimTransport::with_faults(transport_seed, NetFaults::parse(FAULTS)?);
    let mut transport = Observed::new(inner, log);
    let t = Instant::now();
    let orch = RolloutOrchestrator::new(policy, packset, fleet);
    let report = orch.run(fleet, &mut transport, &mut Tracer::disabled());
    let wall = t.elapsed();
    let commits = transport.commits();
    Ok(Rollout {
        outcome: report.outcome,
        nodes: report.nodes,
        commits,
        reported_commits: report.waves.iter().map(|w| w.committed).sum(),
        wall,
        stats: transport.stats(),
        latency: transport.latency,
        resends: transport.resends,
        queue_wait_ticks: transport.queue_wait_ticks,
        contacts: transport.contacts,
        attempts: transport.attempts,
        committed_acks: transport.committed_acks,
    })
}

/// Runs rollouts back to back for `budget` (at least `min_ops`); op
/// `i` builds a fresh fleet from node seed `i` of the run.
fn run_loop(
    args: &RunArgs,
    shape: &Shape,
    budget: Duration,
    min_ops: u64,
    first_op: u64,
    mut log: Option<&mut SpanLog>,
) -> Result<Vec<Rollout>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut i = first_op;
    while start.elapsed() < budget || (out.len() as u64) < min_ops {
        let node_seed = derive(args.seed ^ i, "fleet-nodes");
        let transport_seed = derive(args.seed ^ i, "fleet-transport");
        let (mut fleet, packset) = build(shape, node_seed)?;
        let r = match log.as_deref_mut() {
            Some(log) => log.op(i, |log| {
                rollout(&mut fleet, packset, transport_seed, Some(log))
            })?,
            None => rollout(&mut fleet, packset, transport_seed, None)?,
        };
        out.push(r);
        i += 1;
    }
    Ok(out)
}

/// Folds per-op checks into `result`.
pub fn check(ops: &[Rollout], result: &mut RunResult) {
    result.attempted += ops.len() as u64;
    for r in ops {
        let errs = r.errors();
        if !errs.is_empty() {
            result.failed += 1;
            result.note(format!("failed op: {}", errs.join("; ")));
        }
    }
}

/// The `fleet` workload.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let shape = Shape::workload();
    let (setup_s, _) = timed_setup(SETUP_REPEATS, || {
        build(&shape, derive(args.seed, "fleet-setup"))
    })?;
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    result.note(format!(
        "workers: {}; {} nodes x {} versions; faults {FAULTS}; canary 8 growth 8",
        workers(),
        shape.nodes,
        shape.versions
    ));
    if args.trace {
        return run_traced(args, &shape, result);
    }
    let ops = run_loop(args, &shape, args.seconds, 3, 0, None)?;
    check(&ops, &mut result);
    let mut latency = Samples::default();
    ops.iter().for_each(|r| latency.extend(r.latency.clone()));
    let commits: usize = ops.iter().map(|r| r.commits).sum();
    let wall: f64 = ops.iter().map(|r| r.wall.as_secs_f64()).sum();
    result.note(format!(
        "ops: {} rollouts, {commits} node commits in {wall:.3} s of rollout time",
        ops.len()
    ));
    let nodes: f64 = ops.iter().map(|r| f64::from(r.nodes)).sum();
    end_to_end(
        &mut result,
        setup_s,
        commits as f64 / wall,
        &latency,
        commits as f64 / nodes,
    );
    Ok(result)
}

/// Contacts replayed through one `Fleet::handle_batch` call.
const CONTACT_REPLAYS: u32 = 64;

fn run_traced(args: &RunArgs, shape: &Shape, mut result: RunResult) -> Result<RunResult, String> {
    let third = args.seconds / 3;
    let plain = run_loop(args, shape, third, 1, 0, None)?;
    check(&plain, &mut result);
    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let traced = run_loop(args, shape, third, 1, plain.len() as u64, Some(&mut log))?;
    check(&traced, &mut result);

    let mut layers = Layers::default();
    let per = traced.len() as f64;
    let mean = |f: &dyn Fn(&Rollout) -> f64| traced.iter().map(f).sum::<f64>() / per;
    let op_ms = |ops: &[Rollout]| {
        ops.iter().map(|r| r.wall.as_secs_f64() * 1e3).sum::<f64>() / ops.len() as f64
    };
    layers.set(
        "trace.overhead_pct",
        (op_ms(&traced) / op_ms(&plain) - 1.0) * 100.0,
    );
    let transport_ms = log.self_ms("fleet.transport") / per;
    layers.set("fleet.transport_ms", transport_ms);
    layers.set("fleet.messages_sent", mean(&|r| r.stats.sent as f64));
    layers.set(
        "fleet.delivered_ratio",
        mean(&|r| r.stats.delivered as f64 / r.stats.sent.max(1) as f64),
    );
    layers.set("fleet.resends", mean(&|r| r.resends as f64));
    layers.set(
        "fleet.queue_wait_ticks",
        mean(&|r| r.queue_wait_ticks as f64),
    );
    let contacts = mean(&|r| r.contacts as f64);
    layers.set("fleet.contacts", contacts);

    // Node contacts run inside the orchestrator: replay a sample through
    // `Fleet::handle_batch` with constructed Deliver batches, then one
    // contact's layers through the public calls a node makes.
    let (mut fleet, packset) = build(shape, derive(args.seed, "fleet-replay"))?;
    let batch: Vec<(NodeId, Vec<Payload>)> = (0..CONTACT_REPLAYS)
        .map(|n| {
            let id = n * (shape.nodes / CONTACT_REPLAYS);
            let (pack, checksum) = packset.for_version(fleet.node(id).version);
            let deliver = Payload::Deliver {
                update: UPDATE.to_string(),
                pack: pack.to_vec(),
                checksum,
                canaries: packset.canaries.clone(),
            };
            (id, vec![deliver])
        })
        .collect();
    let mut contact = SpanLog::new(origin);
    let replies = contact.op(0, |log| {
        log.time("fleet.contact", || fleet.handle_batch(batch, workers()))
    });
    let committed = replies
        .iter()
        .flat_map(|(_, p)| p)
        .filter(|p| {
            matches!(
                p,
                Payload::Report {
                    verdict: Verdict::Committed { .. },
                    ..
                }
            )
        })
        .count();
    if committed != CONTACT_REPLAYS as usize {
        result.correct = false;
        result.note(format!(
            "{committed} of {CONTACT_REPLAYS} replayed contacts committed"
        ));
    }
    // Worker time per contact: the batch's wall time on `workers()`
    // threads, spread over its contacts.
    let batch_ms = contact.self_ms("fleet.contact");
    let contact_ms = batch_ms * workers() as f64 / f64::from(CONTACT_REPLAYS);
    layers.set("fleet.contact_ms", contact_ms);
    layers.set(
        "fleet.unattributed_ms",
        op_ms(&traced) - transport_ms - contacts * contact_ms / workers() as f64,
    );
    let mut node = SpanLog::new(origin);
    let replays = replay_node_contacts(&packset, shape, &mut node)?;
    layers.absorb_log(&node, f64::from(replays));
    layers.set(
        "apply.attempts_per_commit",
        mean(&|r| r.attempts as f64 / r.committed_acks.max(1) as f64),
    );
    result.note(format!(
        "untraced rollouts: {}; traced rollouts: {}; contact replays: {CONTACT_REPLAYS}; node replays: {replays}",
        plain.len(),
        traced.len()
    ));
    log.absorb(contact);
    log.absorb(node);
    write_trace(&log, "fleet", args.seed);
    layers.emit(&mut result);
    Ok(result)
}

/// One node contact spelled out through public calls, per base
/// version: boot the version's image, settle, verify the pack checksum
/// and parse it, then the managed apply with its canary watch window.
/// Layer times are per contact. Returns the number of contacts.
fn replay_node_contacts(
    packset: &PackSet,
    shape: &Shape,
    log: &mut SpanLog,
) -> Result<u32, String> {
    let cache = ksplice_core::BuildCache::new();
    let watch = WatchPolicy {
        rounds: 2,
        steps_per_round: 500,
    };
    let mut n = 0u32;
    for round in 0..8u64 {
        for v in 0..shape.versions {
            let (image, _) = build_tree_image_cached(&version_tree(v), &Options::distro(), &cache)
                .map_err(|e| format!("version {v} image: {e}"))?;
            let (bytes, checksum) = packset.for_version(v);
            log.op(round * 8 + v as u64, |log| -> Result<(), String> {
                let mut kernel = log
                    .time("kernel.boot", || Kernel::boot_image(&image))
                    .map_err(|e| format!("boot: {e}"))?;
                log.count("kernel.boots", 1.0);
                log.time("kernel.vm", || kernel.run(1_500));
                let pack = log.time("package.parse", || {
                    if fnv1a(bytes) != checksum {
                        return Err("checksum mismatch".to_string());
                    }
                    UpdatePack::parse(bytes)
                })?;
                let mut probes: Vec<HealthProbe> = packset
                    .canaries
                    .iter()
                    .map(|s| HealthProbe::parse(s))
                    .collect::<Result<_, _>>()?;
                let mut mgr = UpdateManager::with_watch(watch.clone());
                let rep = log
                    .time("apply", || {
                        mgr.apply_watched(
                            &mut kernel,
                            &pack,
                            &mut probes,
                            &Default::default(),
                            &mut Tracer::disabled(),
                        )
                    })
                    .map_err(|e| format!("apply: {e}"))?;
                log.count("apply.commits", 1.0);
                log.count("apply.attempts", f64::from(rep.attempts));
                log.count("apply.sites", rep.sites as f64);
                count_kernel(log, &kernel);
                Ok(())
            })?;
            n += 1;
        }
    }
    Ok(n)
}
