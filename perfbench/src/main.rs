//! The repository benchmark: runs one seeded `vnpu_serve` workload from
//! outside the library, checks its outputs, and prints its metrics as
//! one JSON object on the last line of standard output.
//!
//! ```text
//! vnpu_perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on untraced episodes;
//! `--trace 1` runs one traced episode plus layer replays and prints the
//! per-layer metrics. See `perfbench/README.md` for every metric.

mod alloc;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use vnpu::VnpuError;
use workload::{Episode, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Ticks that must lie beyond the reported p99 tick time.
const MIN_TAIL_TICKS: usize = 10;
/// Times each episode whose host times count is run; host times take the
/// fastest of these runs.
const PASSES: usize = 5;
/// Relative difference in `step()` allocations tolerated between two runs
/// of one seed at `workers = 1`. Not zero: the serving loop keeps
/// `RandomState`-hashed maps, whose tombstone pattern (and so whether an
/// insert rehashes in place or reallocates) varies from run to run.
const ALLOC_TOLERANCE: f64 = 1e-4;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed),
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: vnpu_perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                workload::WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# host nproc {nproc}, build profile {profile}, workload {}, seed {} (default {}, held out {}), workers {}",
        w.name, args.seed, w.default_seed, w.held_out_seed, w.workers
    );
    let outcome = if args.trace {
        trace::run(w, args.seed, args.seconds)
    } else {
        run_untraced(w, args.seed, args.seconds)
    };
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

/// One run's result: metrics in print order, plus every failed check.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a metric; a value that is not finite is a failed check
    /// (and printed as 0, which JSON can carry).
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems.push(format!("metric {name} is {value}"));
        }
        self.metrics
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks one finished episode and counts its requests: leak-free after
/// `drain()`, and every request accounted exactly once. Rejected and
/// still-queued requests are failed operations.
pub fn check_episode(ep: &Episode, out: &mut Outcome) {
    let r = &ep.report;
    if r.leaked_cores != 0 || r.leaked_hbm_bytes != 0 {
        out.problems.push(format!(
            "leaked {} cores and {} HBM bytes after drain()",
            r.leaked_cores, r.leaked_hbm_bytes
        ));
    }
    if r.accepted + r.rejected + r.queued_at_end != r.submitted {
        out.problems.push(format!(
            "accepted {} + rejected {} + queued {} != submitted {}",
            r.accepted, r.rejected, r.queued_at_end, r.submitted
        ));
    }
    out.attempted += r.submitted;
    out.failed += r.rejected + r.queued_at_end;
}

/// Checks that a rerun of one episode's seed reproduced it: the same
/// report digest and, on a single-threaded runtime, the same heap
/// allocations inside `step()` up to [`ALLOC_TOLERANCE`].
pub fn check_repeat(w: &Workload, first: &Episode, again: &Episode, out: &mut Outcome) {
    let (a, b) = (
        workload::report_digest(&first.report),
        workload::report_digest(&again.report),
    );
    if a != b {
        out.problems.push(format!(
            "rerun report digest {b:016x} differs from {a:016x}"
        ));
    }
    let (a, b) = (first.step_allocs(), again.step_allocs());
    if w.workers == 1 && a.abs_diff(b) as f64 > ALLOC_TOLERANCE * a as f64 {
        out.problems
            .push(format!("rerun made {b} step() allocations, first run {a}"));
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * pct).div_ceil(100).max(1);
    sorted[rank - 1]
}

pub fn median_f64(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half of `v`: smoother than a median over values
/// that come in whole ticks of controller cycles, and robust to the
/// episodes whose queue spiked.
pub fn interquartile_mean(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// The fastest host times seen over the runs of one episode.
struct Fastest {
    /// Config build plus `ServeRuntime::new`.
    setup: u64,
    /// Each `step()`.
    ticks: Vec<u64>,
    /// The whole stepping loop.
    loop_nanos: u64,
}

impl Fastest {
    fn new(ep: &Episode) -> Self {
        Fastest {
            setup: ep.setup_nanos,
            ticks: ep.tick_nanos.clone(),
            loop_nanos: ep.loop_nanos,
        }
    }

    fn merge(&mut self, ep: &Episode) {
        self.setup = self.setup.min(ep.setup_nanos);
        for (t, &again) in self.ticks.iter_mut().zip(&ep.tick_nanos) {
            *t = (*t).min(again);
        }
        self.loop_nanos = self.loop_nanos.min(ep.loop_nanos);
    }
}

/// The end-to-end run. Episodes run on seeds derived from the run's.
/// The first pass starts new episodes for `1 / PASSES` of `seconds`, and
/// at least the workload's fixed count of them; simulated metrics and
/// the digest cover that fixed count only, so they depend on the seed
/// alone. Then the first episodes, as many as the rest of `seconds` holds
/// at the pace so far, run again pass after pass until each has run
/// [`PASSES`] times, so the runs of one episode lie spread over the whole
/// run. Every repeat must reproduce its first run exactly. Host times
/// cover these repeated episodes and take, per set-up, tick and stepping
/// loop, the fastest of their runs, which filters out the host's spells
/// of slowness (the more runs, the steadier the fastest).
fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = untraced(w, seed, seconds, &mut out) {
        out.problems.push(format!("serving error: {e}"));
    }
    out
}

fn untraced(w: &Workload, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), VnpuError> {
    let run =
        |k: usize| workload::run_episode(w, workload::episode_seed(seed, k), false, |_, _| {});
    let start = Instant::now();
    let mut firsts: Vec<Episode> = Vec::new();
    while firsts.len() < w.episodes || start.elapsed().as_secs_f64() < seconds / PASSES as f64 {
        let ep = run(firsts.len())?;
        check_episode(&ep, out);
        firsts.push(ep);
    }
    // Episodes that `passes_left` more passes can repeat in the time left
    // at the pace of the last `runs` runs, which took `took` seconds; never
    // fewer than the p99 tick time needs.
    let min_repeated = (100 * MIN_TAIL_TICKS).div_ceil(w.ticks as usize);
    let fit = |took: f64, runs: usize, passes_left: usize| {
        let left = (seconds - start.elapsed().as_secs_f64()).max(0.0);
        ((left * runs as f64 / took / passes_left as f64) as usize).max(min_repeated)
    };
    let mut fastest: Vec<Fastest> = firsts
        .iter()
        .take(fit(start.elapsed().as_secs_f64(), firsts.len(), PASSES - 1))
        .map(Fastest::new)
        .collect();
    for pass in 1..PASSES {
        let pass_start = Instant::now();
        for (k, f) in fastest.iter_mut().enumerate() {
            let ep = run(k)?;
            check_episode(&ep, out);
            check_repeat(w, &firsts[k], &ep, out);
            f.merge(&ep);
        }
        // If the host slowed down, repeat fewer episodes rather than run
        // past `seconds`.
        if pass + 1 < PASSES {
            let passes_left = PASSES - 1 - pass;
            fastest.truncate(fit(
                pass_start.elapsed().as_secs_f64(),
                fastest.len(),
                passes_left,
            ));
        }
    }
    let repeated = fastest.len();
    let mut tick_nanos: Vec<u64> = fastest
        .iter()
        .flat_map(|f| f.ticks.iter().copied())
        .collect();
    let loop_nanos: u64 = fastest.iter().map(|f| f.loop_nanos).sum();
    let setup_nanos = median_f64(fastest.iter().map(|f| f.setup as f64).collect());

    tick_nanos.sort_unstable();
    let ticks = tick_nanos.len();
    if ticks < 100 * MIN_TAIL_TICKS {
        out.problems.push(format!(
            "only {ticks} ticks measured; p99 needs {MIN_TAIL_TICKS} beyond it"
        ));
    }
    let fixed = &firsts[..w.episodes];
    let fixed_ticks: usize = fixed.iter().map(|e| e.tick_nanos.len()).sum();
    let step_allocs: u64 = fixed.iter().map(Episode::step_allocs).sum();
    let accepted: u64 = fixed.iter().map(|e| e.report.accepted).sum();
    let submitted: u64 = fixed.iter().map(|e| e.report.submitted).sum();
    let p99_cycles = interquartile_mean(
        fixed
            .iter()
            .map(|e| e.report.p99_placement_cycles as f64)
            .collect(),
    );
    let peak = fixed.iter().map(|e| e.peak_heap_bytes).max();
    out.metric(
        "tick_ms_p50",
        percentile(&tick_nanos, 50) as f64 / 1e6,
        "ms",
    );
    out.metric(
        "tick_ms_p99",
        percentile(&tick_nanos, 99) as f64 / 1e6,
        "ms",
    );
    out.metric(
        "ticks_per_s",
        ticks as f64 / (loop_nanos as f64 / 1e9),
        "1/s",
    );
    out.metric("setup_s", setup_nanos / 1e9, "s");
    out.metric(
        "peak_heap_mb",
        peak.unwrap_or(0) as f64 / (1 << 20) as f64,
        "MB",
    );
    out.metric(
        "allocs_per_tick",
        step_allocs as f64 / fixed_ticks as f64,
        "count",
    );
    out.metric(
        "accept_ratio",
        accepted as f64 / submitted.max(1) as f64,
        "ratio",
    );
    out.metric("placement_kcycles_p99", p99_cycles / 1e3, "kcycles");
    println!(
        "# {} episodes, the first {repeated} run {PASSES} times, {ticks} timed ticks, report digest of the first {} episodes {:016x}",
        firsts.len(),
        fixed.len(),
        workload::digest_all(fixed.iter().map(|e| &e.report))
    );
    Ok(())
}
