//! The traced run: one episode with the runtime's phase clocks on
//! (`ServeConfig::time_phases`), a span per `step()`, and replays of each
//! layer's public calls on inputs captured from that episode — each
//! chip's free set and resident vNPUs at sampled ticks, and the arrival
//! shapes of an `ArrivalGenerator` built from the same `TrafficConfig`.
//! Every replay checks its own results before its time counts. Spans stay
//! in memory and are written once, at the end, to
//! `perfbench/traces/<workload>-seed<seed>.json`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use vnpu::{Hypervisor, VirtCoreId, VirtualNpu};
use vnpu_mem::buddy::BuddyAllocator;
use vnpu_mem::PhysAddr;
use vnpu_serve::{Arrival, ArrivalGenerator, ServeConfig, ServeRuntime};
use vnpu_sim::isa::{Instr, Program};
use vnpu_sim::machine::Machine;
use vnpu_sim::SocConfig;
use vnpu_topo::{FreeSet, Mapper, MappingCache, NodeId};

use crate::workload::{self, Episode, Workload};
use crate::{alloc, check_episode, median_f64, Outcome};

/// Ticks between two captures of the fleet's state.
const SAMPLES_PER_EPISODE: u64 = 12;
/// Replayed calls per layer (each pairs a captured chip state with an
/// arrival).
const TOPO_CALLS: usize = 240;
const CORE_CALLS: usize = 240;
/// Captured chip states replayed through bind + epoch, and repeats of
/// each (the makespan must repeat exactly).
const SIM_STATES: usize = 24;
const SIM_REPEATS: usize = 3;
/// `phys_core` lookups timed together, per core of a created vNPU.
const RESOLVE_REPS: usize = 64;
/// Untraced episodes, each followed by one with the phase clocks on, for
/// the tracing overhead (at least this many, and for half the run).
const REFERENCE_EPISODES: usize = 3;

/// One recorded span: a layer root, a `step()`, or a replayed call.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
    allocs: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Opens a layer's root span; [`Tracer::close`] sets its extent.
    fn open(&mut self, name: &'static str) -> usize {
        self.spans.push(Span {
            name,
            parent: None,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            allocs: alloc::allocs(),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns;
        span.allocs = alloc::allocs() - span.allocs;
    }

    /// Runs `f` as one child span of `parent`; returns its result, host
    /// nanoseconds and heap allocations.
    fn call<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64, u64) {
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let allocs = alloc::allocs() - a0;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns: (t0 - self.origin).as_nanos() as u64,
            dur_ns,
            allocs,
        });
        (out, dur_ns, allocs)
    }

    fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"allocs\":{}}}{}",
                span.name,
                span.start_ns,
                span.dur_ns,
                span.allocs,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push(']');
        s
    }
}

/// One chip's state at a sampled tick.
struct ChipState {
    soc: SocConfig,
    hbm_bytes: u64,
    free: FreeSet,
    residents: Vec<VirtualNpu>,
}

/// Accumulates a per-call mean.
#[derive(Default)]
struct Mean {
    total: f64,
    count: u64,
}

impl Mean {
    fn add(&mut self, v: f64) {
        self.total += v;
        self.count += 1;
    }

    fn get(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }
}

/// The traced run of `w` on the first episode seed of `seed`.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    match traced(w, seed, seconds, &mut out) {
        Ok(()) => {}
        Err(e) => out.problems.push(format!("serving error: {e}")),
    }
    out
}

fn traced(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), vnpu::VnpuError> {
    let episode_seed = workload::episode_seed(seed, 0);
    let start = Instant::now();

    // Untraced and traced episodes of the same seed, alternating, for
    // the tracing overhead; the untraced ones are also the reference for
    // the report digest.
    let rate = |e: &Episode| e.tick_nanos.len() as f64 / (e.loop_nanos as f64 / 1e9);
    let mut reference: Vec<Episode> = Vec::new();
    let mut traced_rates: Vec<f64> = Vec::new();
    while reference.len() < REFERENCE_EPISODES || start.elapsed().as_secs_f64() < seconds / 2.0 {
        for time_phases in [false, true] {
            let ep = workload::run_episode(w, episode_seed, time_phases, |_, _| {})?;
            check_episode(&ep, out);
            if time_phases {
                traced_rates.push(rate(&ep));
            } else {
                reference.push(ep);
            }
        }
    }
    let untraced_rate = median_f64(reference.iter().map(rate).collect());
    let traced_rate = median_f64(traced_rates);

    // The traced episode.
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let serve = tracer.open("serve");
    let stride = (w.ticks / SAMPLES_PER_EPISODE).max(1);
    let mut states: Vec<ChipState> = Vec::new();
    let mut step_ends: Vec<u64> = Vec::new();
    let ep = workload::run_episode(w, episode_seed, true, |rt, events| {
        step_ends.push(tracer.origin.elapsed().as_nanos() as u64);
        if events.tick % stride == stride / 2 {
            capture(rt, &mut states);
        }
    })?;
    tracer.close(serve);
    for ((&end, &dur), &allocs) in step_ends.iter().zip(&ep.tick_nanos).zip(&ep.tick_allocs) {
        tracer.spans.push(Span {
            name: "serve.step",
            parent: Some(serve),
            start_ns: end.saturating_sub(dur),
            dur_ns: dur,
            allocs,
        });
    }
    check_episode(&ep, out);
    let (a, b) = (
        workload::report_digest(&reference[0].report),
        workload::report_digest(&ep.report),
    );
    if a != b {
        out.problems.push(format!(
            "traced report digest {b:016x} differs from untraced {a:016x}"
        ));
    }

    let cfg = w.config(episode_seed);
    let arrivals = arrivals(&cfg, w.ticks);
    let r = &ep.report;

    // serve: the report's phase clocks; self time is what the step spans
    // cover beyond them.
    let step_ns: u64 = ep.tick_nanos.iter().sum();
    let phases = [
        ("serve.admission_ms", r.admission_nanos),
        ("serve.defrag_ms", r.defrag_nanos),
        ("serve.drain_ms", r.drain_nanos),
        ("serve.recovery_ms", r.recovery_nanos),
        ("serve.execution_ms", r.execution_nanos),
    ];
    let phase_ns: u64 = phases.iter().map(|(_, ns)| ns).sum();
    out.metric("serve.step_ms", step_ns as f64 / 1e6, "ms");
    for (name, ns) in phases {
        out.metric(name, ns as f64 / 1e6, "ms");
    }
    out.metric(
        "serve.self_ms",
        (step_ns as f64 - phase_ns as f64) / 1e6,
        "ms",
    );
    out.metric(
        "serve.queue_depth_mean",
        ep.queued.iter().sum::<u64>() as f64 / ep.queued.len().max(1) as f64,
        "count",
    );

    // sim
    let busy_ns: u64 = r.per_chip.iter().map(|c| c.exec_nanos).sum();
    let sim = replay_sim(&mut tracer, &states, out);
    let in_run_us = busy_ns as f64 / 1e3 / r.executed_epochs.max(1) as f64;
    out.metric("sim.epochs", r.executed_epochs as f64, "count");
    out.metric("sim.epoch_busy_ms", busy_ns as f64 / 1e6, "ms");
    out.metric("sim.epoch_us_isolated", sim.epoch_us.get(), "us");
    out.metric(
        "sim.epoch_inflation",
        if r.executed_epochs == 0 {
            0.0
        } else {
            in_run_us / sim.epoch_us.get()
        },
        "ratio",
    );
    out.metric("sim.bind_us_per_core", sim.bind_us.get(), "us");
    out.metric("sim.ns_per_packet", sim.ns_per_packet.get(), "ns");
    out.metric("sim.allocs_per_epoch", sim.allocs.get(), "count");
    out.metric(
        "sim.epoch_kcycles_mean",
        r.machine_cycles as f64 / r.executed_epochs.max(1) as f64 / 1e3,
        "kcycles",
    );

    // core
    let core = replay_core(&mut tracer, &states, &arrivals, out);
    out.metric("core.admitted", r.accepted as f64, "count");
    out.metric("core.rejected", r.rejected as f64, "count");
    out.metric("core.migrations", r.migrations as f64, "count");
    out.metric("core.drain_migrations", r.drain_migrations as f64, "count");
    out.metric(
        "core.reconfig_kcycles",
        (r.reconfig.config_cycles()
            + r.drain_reconfig.config_cycles()
            + r.recovery_reconfig.config_cycles()) as f64
            / 1e3,
        "kcycles",
    );
    out.metric("core.create_us", core.create_us.get(), "us");
    out.metric("core.destroy_us", core.destroy_us.get(), "us");
    out.metric("core.allocs_per_create", core.allocs.get(), "count");
    out.metric("core.vrouter_resolve_ns", core.resolve_ns.get(), "ns");

    // topo
    let topo = replay_topo(&mut tracer, &states, &arrivals, out);
    out.metric(
        "topo.cache_lookups",
        (r.cache.hits + r.cache.misses) as f64,
        "count",
    );
    out.metric("topo.cache_hit_ratio", r.cache_hit_rate(), "ratio");
    out.metric("topo.map_uncached_us", topo.uncached_us.get(), "us");
    out.metric("topo.map_cached_us", topo.cached_us.get(), "us");
    out.metric("topo.allocs_per_map", topo.allocs.get(), "count");

    // mem
    let hbm: u64 = cfg.chips.iter().map(|c| c.hbm_bytes).sum();
    let (alloc_ns, free_ns) = replay_mem(&mut tracer, hbm, &arrivals, out);
    out.metric("mem.buddy_alloc_ns", alloc_ns.get(), "ns");
    out.metric("mem.buddy_free_ns", free_ns.get(), "ns");

    // fault
    out.metric("fault.onsets", r.faults_injected as f64, "count");
    out.metric("fault.recovered", r.recovered_tenants() as f64, "count");
    out.metric("fault.mttr_ticks_max", r.mttr_max_ticks as f64, "ticks");
    out.metric("fault.degraded_ticks", r.degraded_ticks as f64, "ticks");

    out.metric("trace.ticks_per_s", traced_rate, "1/s");
    out.metric("trace.untraced_ticks_per_s", untraced_rate, "1/s");
    out.metric(
        "trace.overhead_pct",
        (untraced_rate / traced_rate - 1.0) * 100.0,
        "%",
    );

    let path = write_trace(w, seed, &tracer);
    println!(
        "# traced {} ticks with {} spans to {}; tracing overhead {:.1}% over {} episode pairs",
        ep.tick_nanos.len(),
        tracer.spans.len(),
        path.map_or_else(
            |e| format!("<not written: {e}>"),
            |p| p.display().to_string()
        ),
        (untraced_rate / traced_rate - 1.0) * 100.0,
        reference.len()
    );
    Ok(())
}

/// Records every chip's free set and resident vNPUs.
fn capture(rt: &ServeRuntime, states: &mut Vec<ChipState>) {
    for hv in rt.cluster().chips() {
        states.push(ChipState {
            soc: hv.config().clone(),
            hbm_bytes: hv.hbm_total_bytes(),
            free: hv.free_set().clone(),
            residents: hv.vnpus().map(|(_, v)| v.clone()).collect(),
        });
    }
}

/// The episode's arrival stream, from a generator over the same traffic.
fn arrivals(cfg: &ServeConfig, ticks: u64) -> Vec<Arrival> {
    let mut gen = ArrivalGenerator::new(cfg.traffic.clone());
    (0..ticks).flat_map(|t| gen.arrivals_for_tick(t)).collect()
}

/// The `i`-th (state, arrival) replay pair; the two index streams step
/// at different rates so pairs mix.
fn pair<'a>(
    states: &'a [ChipState],
    arrivals: &'a [Arrival],
    i: usize,
) -> (&'a ChipState, &'a Arrival) {
    (
        &states[i % states.len()],
        &arrivals[(i * 7) % arrivals.len()],
    )
}

#[derive(Default)]
struct TopoReplay {
    uncached_us: Mean,
    cached_us: Mean,
    allocs: Mean,
}

/// `Mapper::map_in` and a `map_cached` hit on captured pairs; the cached
/// result must equal the uncached one.
fn replay_topo(
    tracer: &mut Tracer,
    states: &[ChipState],
    arrivals: &[Arrival],
    out: &mut Outcome,
) -> TopoReplay {
    let mut m = TopoReplay::default();
    if states.is_empty() || arrivals.is_empty() {
        return m;
    }
    let root = tracer.open("topo");
    for i in 0..TOPO_CALLS {
        let (state, arrival) = pair(states, arrivals, i);
        let hv = Hypervisor::with_hbm_bytes(state.soc.clone(), state.hbm_bytes);
        let mapper = Mapper::with_phys_key(hv.topology(), hv.phys_key());
        let req = &arrival.request;
        let (direct, ns, allocs) = tracer.call("topo.map_in", root, || {
            mapper.map_in(&state.free, req.topology(), req.strategy_ref())
        });
        let mut cache = MappingCache::default();
        let miss = mapper.map_cached(&state.free, req.topology(), req.strategy_ref(), &mut cache);
        let (hit, hit_ns, _) = tracer.call("topo.map_cached", root, || {
            mapper.map_cached(&state.free, req.topology(), req.strategy_ref(), &mut cache)
        });
        if miss != direct || hit != direct {
            out.problems
                .push(format!("topo replay {i}: map_cached disagrees with map_in"));
        }
        m.uncached_us.add(ns as f64 / 1e3);
        m.cached_us.add(hit_ns as f64 / 1e3);
        m.allocs.add(allocs as f64);
    }
    tracer.close(root);
    m
}

#[derive(Default)]
struct CoreReplay {
    create_us: Mean,
    destroy_us: Mean,
    allocs: Mean,
    resolve_ns: Mean,
}

/// `Hypervisor::create_vnpu` → `VirtualNpu::phys_core` → `destroy_vnpu`
/// on a chip rebuilt with `reserve_cores` from a captured free set; the
/// rebuilt chip must match the capture, and destroy must restore it.
fn replay_core(
    tracer: &mut Tracer,
    states: &[ChipState],
    arrivals: &[Arrival],
    out: &mut Outcome,
) -> CoreReplay {
    let mut m = CoreReplay::default();
    if states.is_empty() || arrivals.is_empty() {
        return m;
    }
    let root = tracer.open("core");
    for i in 0..CORE_CALLS {
        let (state, arrival) = pair(states, arrivals, i);
        let mut hv = Hypervisor::with_hbm_bytes(state.soc.clone(), state.hbm_bytes);
        let used: Vec<u32> = (0..state.free.capacity() as u32)
            .filter(|&c| !state.free.contains(NodeId(c)))
            .collect();
        if hv.reserve_cores(&used).is_err() || hv.free_set() != &state.free {
            out.problems.push(format!(
                "core replay {i}: rebuilt chip differs from the capture"
            ));
            continue;
        }
        let req = arrival.request.clone();
        let (created, ns, allocs) = tracer.call("core.create_vnpu", root, || hv.create_vnpu(req));
        let Ok(vm) = created else {
            continue; // no room on this captured chip: a legitimate outcome
        };
        m.create_us.add(ns as f64 / 1e3);
        m.allocs.add(allocs as f64);
        if let Ok(vnpu) = hv.vnpu(vm) {
            let n = vnpu.core_count();
            let (_, ns, _) = tracer.call("core.vrouter_resolve", root, || {
                for _ in 0..RESOLVE_REPS {
                    for v in 0..n {
                        let _ = black_box(vnpu.phys_core(VirtCoreId(black_box(v))));
                    }
                }
            });
            m.resolve_ns
                .add(ns as f64 / (RESOLVE_REPS as f64 * f64::from(n.max(1))));
        }
        let (destroyed, ns, _) = tracer.call("core.destroy_vnpu", root, || hv.destroy_vnpu(vm));
        m.destroy_us.add(ns as f64 / 1e3);
        if destroyed.is_err() || hv.free_set() != &state.free {
            out.problems.push(format!(
                "core replay {i}: create then destroy did not restore the free set"
            ));
        }
    }
    tracer.close(root);
    m
}

/// `BuddyAllocator` over the fleet's HBM, replaying the arrival stream's
/// memory sizes: each tenant's block is freed when its lifetime ends.
/// Every allocation must succeed and the allocator must end empty.
fn replay_mem(
    tracer: &mut Tracer,
    hbm_bytes: u64,
    arrivals: &[Arrival],
    out: &mut Outcome,
) -> (Mean, Mean) {
    let (mut alloc_ns, mut free_ns) = (Mean::default(), Mean::default());
    let root = tracer.open("mem");
    let mut buddy = BuddyAllocator::new(PhysAddr(0x8_0000_0000), hbm_bytes, 1 << 20);
    let mut live: Vec<(u64, PhysAddr)> = Vec::new();
    for a in arrivals {
        live.sort_by_key(|&(expiry, _)| std::cmp::Reverse(expiry));
        while live.last().is_some_and(|&(expiry, _)| expiry <= a.at_tick) {
            let (_, addr) = live.pop().expect("checked non-empty");
            let (freed, ns, _) = tracer.call("mem.buddy_free", root, || buddy.free(addr));
            free_ns.add(ns as f64);
            if freed.is_err() {
                out.problems.push("mem replay: free failed".into());
            }
        }
        let size = a.request.memory_bytes();
        let (block, ns, _) = tracer.call("mem.buddy_alloc", root, || buddy.alloc(size));
        alloc_ns.add(ns as f64);
        match block {
            Ok(b) => live.push((a.at_tick + a.lifetime_epochs, b.addr)),
            Err(e) => out.problems.push(format!("mem replay: alloc failed: {e}")),
        }
    }
    for (_, addr) in live {
        let (freed, ns, _) = tracer.call("mem.buddy_free", root, || buddy.free(addr));
        free_ns.add(ns as f64);
        if freed.is_err() {
            out.problems.push("mem replay: free failed".into());
        }
    }
    if buddy.free_bytes() != buddy.total_bytes() {
        out.problems
            .push("mem replay: allocator not empty after freeing every block".into());
    }
    tracer.close(root);
    (alloc_ns, free_ns)
}

#[derive(Default)]
struct SimReplay {
    epoch_us: Mean,
    bind_us: Mean,
    ns_per_packet: Mean,
    allocs: Mean,
}

/// `Machine::bind_with` and `Machine::run_epoch` alone, on a fresh
/// machine per captured chip state with residents, binding the same ring
/// program the serving loop binds. Each state runs [`SIM_REPEATS`]
/// epochs, whose makespans must be equal.
fn replay_sim(tracer: &mut Tracer, states: &[ChipState], out: &mut Outcome) -> SimReplay {
    let mut m = SimReplay::default();
    let loaded: Vec<&ChipState> = states.iter().filter(|s| !s.residents.is_empty()).collect();
    if loaded.is_empty() {
        return m;
    }
    let root = tracer.open("sim");
    let step = loaded.len().div_ceil(SIM_STATES).max(1);
    for state in loaded.iter().step_by(step) {
        let mut machine = Machine::new(state.soc.clone());
        let tenants: Vec<_> = (0..state.residents.len())
            .map(|i| machine.add_tenant(&format!("t{i}")))
            .collect();
        let mut makespan = None;
        for _ in 0..SIM_REPEATS {
            for (vnpu, &tenant) in state.residents.iter().zip(&tenants) {
                let n = vnpu.core_count();
                for v in 0..n {
                    let (Ok(phys), Ok(services)) =
                        (vnpu.phys_core(VirtCoreId(v)), vnpu.services(VirtCoreId(v)))
                    else {
                        out.problems.push("sim replay: vNPU lookup failed".into());
                        continue;
                    };
                    let program = ring_program(v, n);
                    let (bound, ns, _) = tracer.call("sim.bind_with", root, || {
                        machine.bind_with(phys, tenant, v, program, services)
                    });
                    m.bind_us.add(ns as f64 / 1e3);
                    if bound.is_err() {
                        out.problems.push("sim replay: bind_with failed".into());
                    }
                }
            }
            let (report, ns, allocs) = tracer.call("sim.run_epoch", root, || machine.run_epoch());
            let Ok(report) = report else {
                out.problems.push("sim replay: run_epoch failed".into());
                break;
            };
            m.epoch_us.add(ns as f64 / 1e3);
            m.allocs.add(allocs as f64);
            if report.noc_packets() > 0 {
                m.ns_per_packet.add(ns as f64 / report.noc_packets() as f64);
            }
            match makespan {
                None => makespan = Some(report.makespan()),
                Some(first) if first != report.makespan() => out.problems.push(format!(
                    "sim replay: makespan {} differs from {first} on a repeat",
                    report.makespan()
                )),
                Some(_) => {}
            }
        }
    }
    tracer.close(root);
    m
}

/// The epoch program the serving loop binds on each core of a vNPU: a
/// small matmul, then the activation block forwarded around the virtual
/// ring (a single core only computes).
fn ring_program(v: u32, n: u32) -> Program {
    let body = if n == 1 {
        vec![Instr::matmul(16, 16, 16)]
    } else {
        let next = (v + 1) % n;
        let prev = (v + n - 1) % n;
        vec![
            Instr::matmul(16, 16, 16),
            Instr::send(next, 1024, v),
            Instr::recv(prev, 1024, prev),
        ]
    };
    Program::looped(vec![], body, 1)
}

/// Writes the spans under `perfbench/traces/`.
fn write_trace(w: &Workload, seed: u64, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.json", w.name));
    std::fs::write(&path, tracer.to_json())?;
    Ok(path)
}
