//! The benchmark's serving workloads and the episode loop that
//! drives one of them through `ServeRuntime::new` / `step` / `drain`.
//!
//! Arrivals are an open loop in simulated time: the seeded
//! `TrafficConfig` schedule never waits for admission, so the queue can
//! grow. In host time the loop is closed: ticks are stepped back to
//! back, so there is no host-side schedule to fall behind.

use std::sync::Arc;
use std::time::Instant;
use vnpu::cluster::LeastLoaded;
use vnpu::VnpuError;
use vnpu_fault::FaultPlan;
use vnpu_serve::{ServeConfig, ServeReport, ServeRuntime, TickEvents};
use vnpu_sim::SocConfig;

use crate::alloc;

/// One benchmark workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Seed used when `--seed` is not given.
    pub default_seed: u64,
    /// Seed kept out of tuning, for checking later claims.
    pub held_out_seed: u64,
    /// Ticks stepped per episode before the queue is allowed to settle.
    pub ticks: u64,
    /// Episodes every run makes at least, each on its own derived seed;
    /// the simulated metrics and the digest cover exactly these.
    pub episodes: usize,
    /// Worker threads of the serving runtime (never above the 2 cores
    /// the benchmark host has).
    pub workers: usize,
    /// Number of `SocConfig::sim()` chips in the fleet.
    chips: usize,
    config: fn(&mut ServeConfig, u64),
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    // 16 chips with execution on: machine epochs and the bind pass carry
    // most of the time, and the worker pool runs.
    Workload {
        name: "fleet16_exec",
        episodes: 16,
        default_seed: 1,
        held_out_seed: 90_001,
        ticks: 240,
        workers: 2,
        chips: 16,
        config: fleet16_exec,
    },
    // Placement below saturation, with rotating row outages: admission
    // (mapping, cache, HBM) and fault recovery carry the time and the
    // simulator none. At lifetime 20 some seeds
    // reject or strand requests; at 10 the queue is mostly empty, half
    // the ticks do no work and the median tick time jumps between the
    // idle and the busy ticks from seed to seed.
    Workload {
        name: "placement_churn",
        episodes: 48,
        default_seed: 1,
        held_out_seed: 90_002,
        ticks: 600,
        workers: 1,
        chips: 4,
        config: placement_churn,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn fleet16_exec(cfg: &mut ServeConfig, _seed: u64) {
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 30;
}

fn placement_churn(cfg: &mut ServeConfig, seed: u64) {
    cfg.execute_epochs = false;
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 15;
    cfg.fault_plan = row_outages(cfg.chips.len(), cfg.epochs, seed);
}

/// Ticks between row-outage onsets, and how long each row stays dead.
const OUTAGE_PERIOD: u64 = 40;
const OUTAGE_TICKS: u64 = 15;

/// A row outage every [`OUTAGE_PERIOD`] ticks, rotating over the chips,
/// each on a row drawn from `seed` and repaired [`OUTAGE_TICKS`] later.
fn row_outages(chips: usize, epochs: u64, seed: u64) -> FaultPlan {
    let soc = SocConfig::sim();
    let mut rng = seed;
    let mut plan = FaultPlan::new();
    let mut onset = 30;
    let mut k = 0;
    while onset + OUTAGE_TICKS < epochs {
        rng = splitmix64(rng);
        let row = (rng % u64::from(soc.mesh_height)) as u32;
        plan = plan.row_outage(
            k % chips,
            soc.mesh_width,
            row,
            onset,
            Some(onset + OUTAGE_TICKS),
        );
        onset += OUTAGE_PERIOD;
        k += 1;
    }
    plan
}

/// The splitmix64 step, used to derive every input from the seed.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of a run's `k`-th episode.
pub fn episode_seed(run_seed: u64, k: usize) -> u64 {
    splitmix64(splitmix64(run_seed) ^ k as u64)
}

impl Workload {
    /// The serving config for `seed`: every input the runtime sees (the
    /// traffic stream and the fault plan) is generated from it here.
    pub fn config(&self, seed: u64) -> ServeConfig {
        let mut cfg = ServeConfig::cluster(seed, self.ticks, vec![SocConfig::sim(); self.chips]);
        cfg.traffic.candidate_cap = 200;
        cfg.placement = Arc::new(LeastLoaded);
        cfg.workers = self.workers;
        (self.config)(&mut cfg, splitmix64(seed));
        cfg
    }

    /// Ticks an episode may add after [`Workload::ticks`] while requests
    /// are still queued.
    fn settle_cap(&self) -> u64 {
        self.ticks / 4
    }
}

/// What one episode measured.
pub struct Episode {
    /// The end-of-run report, after `drain()`.
    pub report: ServeReport,
    /// Host time of config build plus `ServeRuntime::new`.
    pub setup_nanos: u64,
    /// Host time of each `step()`.
    pub tick_nanos: Vec<u64>,
    /// Heap allocations made inside each `step()`.
    pub tick_allocs: Vec<u64>,
    /// `TickEvents::queued` after each `step()`.
    pub queued: Vec<u64>,
    /// Host time of the whole stepping loop.
    pub loop_nanos: u64,
    /// Peak live heap above the heap live before the episode, sampled
    /// after `ServeRuntime::new` and after every `step()`.
    pub peak_heap_bytes: usize,
}

impl Episode {
    /// Heap allocations made inside all of the episode's `step()` calls.
    pub fn step_allocs(&self) -> u64 {
        self.tick_allocs.iter().sum()
    }
}

/// Runs one episode. `observe` sees the runtime after every step,
/// outside the timed region (the traced run captures its replay inputs
/// there).
pub fn run_episode(
    w: &Workload,
    seed: u64,
    time_phases: bool,
    mut observe: impl FnMut(&ServeRuntime, &TickEvents),
) -> Result<Episode, VnpuError> {
    let cap = (w.ticks + w.settle_cap()) as usize;
    let mut tick_nanos = Vec::with_capacity(cap);
    let mut tick_allocs = Vec::with_capacity(cap);
    let mut queued = Vec::with_capacity(cap);
    let base_heap = alloc::live_bytes();

    let t0 = Instant::now();
    let mut cfg = w.config(seed);
    cfg.time_phases = time_phases;
    let mut rt = ServeRuntime::new(cfg);
    let setup_nanos = t0.elapsed().as_nanos() as u64;
    let mut peak_heap = alloc::live_bytes();

    let loop_start = Instant::now();
    loop {
        let tick = rt.tick_index();
        let settled = queued.last().is_none_or(|&q| q == 0);
        if tick >= w.ticks + w.settle_cap() || (tick >= w.ticks && settled) {
            break;
        }
        let a0 = alloc::allocs();
        let s0 = Instant::now();
        let events = rt.step()?;
        let dt = s0.elapsed().as_nanos() as u64;
        tick_allocs.push(alloc::allocs() - a0);
        tick_nanos.push(dt);
        queued.push(events.queued);
        peak_heap = peak_heap.max(alloc::live_bytes());
        observe(&rt, &events);
    }
    let loop_nanos = loop_start.elapsed().as_nanos() as u64;
    rt.drain()?;
    let report = rt.report();
    let peak_heap_bytes = peak_heap.saturating_sub(base_heap);
    Ok(Episode {
        report,
        setup_nanos,
        tick_nanos,
        tick_allocs,
        queued,
        loop_nanos,
        peak_heap_bytes,
    })
}

/// FNV-1a digest of the report's JSON with its host-time fields zeroed,
/// so timed and untimed runs of one seed digest alike.
pub fn report_digest(report: &ServeReport) -> u64 {
    let mut r = report.clone();
    r.recovery_nanos = 0;
    r.admission_nanos = 0;
    r.drain_nanos = 0;
    r.defrag_nanos = 0;
    r.execution_nanos = 0;
    for c in &mut r.per_chip {
        c.exec_nanos = 0;
    }
    r.to_json(usize::MAX)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One digest over several reports, in order.
pub fn digest_all<'a>(reports: impl Iterator<Item = &'a ServeReport>) -> u64 {
    reports.fold(0, |h, r| splitmix64(h ^ report_digest(r)))
}
