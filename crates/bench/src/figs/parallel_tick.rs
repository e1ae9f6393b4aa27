//! **Parallel tick** — the 16-chip fleet scenario that measures what the
//! worker pool buys: the same seeded churn runs at `workers = 1, 2, 4, 8`
//! and the per-width wall-clock (whole run plus the per-phase breakdown
//! from [`vnpu_serve::ServeConfig::time_phases`]) lands in
//! `BENCH_parallel_tick.json`, so the perf trajectory has a datapoint.
//! Only the execution phase uses the pool: each tick's machine epochs
//! run as one batch per worker, while admission, drain and defrag run
//! on the stepping thread at every width.
//!
//! Asserted invariants (both modes): every width's [`ServeReport`] is
//! byte-identical to the sequential (`workers = 1`) run's — modulo the
//! report's own `workers` field — with `ServeConfig::audit` on and zero
//! fleet-audit findings each run; the fleet actually spreads (≥ 12 of
//! 16 chips take load). The ≥ 2.5x speedup-at-4-workers claim is gated
//! on full (non-quick) scale *and* the host actually having ≥ 4 cores —
//! wall-clock is printed unconditionally either way.

use std::sync::Arc;
use std::time::Instant;
use vnpu::cluster::LeastLoaded;
use vnpu_conc::{ConcMode, DigestChain, Trace, TraceProbe};
use vnpu_serve::{ServeConfig, ServeReport, ServeRuntime};
use vnpu_sim::SocConfig;

/// Fixed seed: the whole request stream, admission trace and report are
/// reproducible from this value.
const SEED: u64 = 0x9A_7A_11_E1;

/// Worker-pool widths under test; index 0 must stay 1 (the sequential
/// baseline every other width is diffed and normalized against).
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// The 16-chip fleet's serve config at one pool width (240 ticks quick,
/// 900 full).
pub fn fleet_config(quick: bool, workers: usize) -> ServeConfig {
    let epochs = if quick { 240 } else { 900 };
    let mut cfg = ServeConfig::cluster(SEED, epochs, vec![SocConfig::sim(); 16]);
    // Heavy standing load: ~1 arrival per tick with 30-epoch lifetimes
    // keeps a few dozen tenants resident, so most of the 16 chips run a
    // machine epoch every tick — the embarrassingly parallel part.
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 30;
    cfg.traffic.candidate_cap = if quick { 120 } else { 200 };
    cfg.placement = Arc::new(LeastLoaded);
    cfg.workers = workers;
    cfg
}

/// The report's JSON with its `workers` line stripped — the one field
/// that legitimately varies with the pool width (same normalization the
/// `scripts/verify.sh` gate applies with `grep -v`).
fn normalized_json(r: &ServeReport) -> String {
    r.to_json(usize::MAX)
        .lines()
        .filter(|l| !l.contains("\"workers\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs the 16-chip fleet at every pool width: determinism first, then
/// wall-clock.
///
/// # Panics
///
/// Panics when any report diverges from the sequential baseline, any
/// audited run reports findings, or (full scale, ≥ 4 host cores) the
/// 4-worker run misses the 2.5x speedup claim.
pub fn run(quick: bool) {
    println!("== parallel_tick: 16-chip fleet across worker-pool widths ==\n");

    // --- Determinism: byte-identical audited reports at every width. ---
    let mut baseline: Option<ServeReport> = None;
    for workers in WIDTHS {
        let mut cfg = fleet_config(quick, workers);
        cfg.audit = true;
        let report = ServeRuntime::new(cfg).run().expect("fleet run completes");
        assert_eq!(
            report.audit_findings, 0,
            "workers={workers}: a healthy fleet audits clean on every tick"
        );
        assert_eq!(report.workers, workers, "report must carry its pool width");
        match &baseline {
            None => {
                let loaded = report.per_chip.iter().filter(|c| c.accepted > 0).count();
                assert!(
                    loaded >= 12,
                    "the scenario must spread load across the fleet: only \
                     {loaded}/16 chips took tenants"
                );
                assert_eq!(report.leaked_cores, 0, "no cores may leak");
                assert_eq!(report.leaked_hbm_bytes, 0, "no HBM may leak");
                baseline = Some(report);
            }
            Some(base) => assert_eq!(
                normalized_json(&report),
                normalized_json(base),
                "workers={workers}: report must be byte-identical to the \
                 sequential run (modulo the workers field)"
            ),
        }
    }
    let baseline = baseline.expect("widths is non-empty");
    println!(
        "[determinism] byte-identical reports at workers = {WIDTHS:?}, \
         zero audit findings, {} accepted / {} submitted\n",
        baseline.accepted, baseline.submitted
    );

    // --- Conc sanitizer pass (opt-in: VNPU_CONC_PROBE=1). ---
    if std::env::var("VNPU_CONC_PROBE").as_deref() == Ok("1") {
        conc_pass(quick, &baseline);
    }

    // --- Wall-clock per width (timed runs, audit off). ---
    let reps = if quick { 1 } else { 2 };
    let mut rows: Vec<(usize, u64, ServeReport)> = Vec::new();
    for workers in WIDTHS {
        let mut best: Option<(u64, ServeReport)> = None;
        for _ in 0..reps {
            let mut cfg = fleet_config(quick, workers);
            cfg.time_phases = true;
            let t0 = Instant::now();
            let report = ServeRuntime::new(cfg)
                .run()
                .expect("timed fleet run completes");
            let nanos = t0.elapsed().as_nanos() as u64;
            if best.as_ref().is_none_or(|(b, _)| nanos < *b) {
                best = Some((nanos, report));
            }
        }
        let (nanos, report) = best.expect("reps >= 1");
        println!(
            "workers {workers}: {:8.1} ms wall  (admission {:.1} ms, drain {:.1} ms, \
             defrag {:.1} ms, execution {:.1} ms)",
            nanos as f64 / 1e6,
            report.admission_nanos as f64 / 1e6,
            report.drain_nanos as f64 / 1e6,
            report.defrag_nanos as f64 / 1e6,
            report.execution_nanos as f64 / 1e6,
        );
        rows.push((workers, nanos, report));
    }
    let base_nanos = rows[0].1 as f64;
    for (workers, nanos, _) in &rows {
        println!(
            "  speedup at {workers} workers: {:.2}x",
            base_nanos / *nanos as f64
        );
    }

    // --- JSON artifact: the perf trajectory's datapoint. ---
    if let Some(dir) = crate::harness::report_dir() {
        let mut body = format!(
            "{{\n  \"bench\": \"parallel_tick\",\n  \"chips\": 16,\n  \
             \"epochs\": {},\n  \"quick\": {},\n  \"rows\": [",
            if quick { 240 } else { 900 },
            quick
        );
        for (i, (workers, nanos, report)) in rows.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "\n    {{\"workers\": {}, \"wall_nanos\": {}, \"speedup\": {:.3}, \
                 \"admission_nanos\": {}, \"drain_nanos\": {}, \
                 \"defrag_nanos\": {}, \"execution_nanos\": {}}}",
                workers,
                nanos,
                base_nanos / *nanos as f64,
                report.admission_nanos,
                report.drain_nanos,
                report.defrag_nanos,
                report.execution_nanos,
            ));
        }
        body.push_str("\n  ]\n}\n");
        let path = dir.join("BENCH_parallel_tick.json");
        if std::fs::write(&path, body).is_ok() {
            println!("\nper-width wall-clock written to {}", path.display());
        }
    }

    // --- The perf claim, where the hardware can express it. ---
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if !quick && cores >= 4 {
        let &(_, four_nanos, _) = rows
            .iter()
            .find(|(w, ..)| *w == 4)
            .expect("4 workers is a tested width");
        let speedup = base_nanos / four_nanos as f64;
        assert!(
            speedup >= 2.5,
            "4 workers must clear 2.5x over sequential on the 16-chip fleet, \
             got {speedup:.2}x"
        );
        println!("speedup gate: 4 workers at {speedup:.2}x >= 2.5x");
    } else {
        println!(
            "speedup gate skipped (quick = {quick}, host cores = {cores}): \
             wall-clock above is informational"
        );
    }
}

/// Re-runs every width with a [`TraceProbe`] installed and phase digests
/// on, then feeds the traces through the `vnpu_conc` analyses: the
/// instrumented reports must stay byte-identical to the uninstrumented
/// `baseline`, the lock traces must audit clean, and the per-phase
/// digest chains must agree across all widths.
///
/// # Panics
///
/// Panics when any instrumented run diverges from the baseline, any
/// `CONC-*` analysis reports a finding, or the digest chains disagree.
fn conc_pass(quick: bool, baseline: &ServeReport) {
    let mut traces: Vec<Trace> = Vec::new();
    let mut chains: Vec<(String, DigestChain)> = Vec::new();
    for workers in WIDTHS {
        let probe = Arc::new(TraceProbe::new());
        let mut cfg = fleet_config(quick, workers);
        let epochs = cfg.epochs;
        cfg.audit = true;
        cfg.conc = ConcMode::probed(probe.clone());
        // `run()` consumes the runtime, so drive the same loop by hand
        // to read the digest chain out before the runtime drops.
        let mut rt = ServeRuntime::new(cfg);
        while rt.tick_index() < epochs {
            rt.step().expect("instrumented fleet tick completes");
        }
        rt.drain().expect("instrumented fleet drains");
        let report = rt.report();
        assert_eq!(
            report.audit_findings, 0,
            "workers={workers}: instrumented fleet audits clean"
        );
        assert_eq!(
            normalized_json(&report),
            normalized_json(baseline),
            "workers={workers}: the probe must not perturb the report"
        );
        chains.push((
            format!("workers={workers}"),
            rt.digest_chain().expect("digests were enabled").clone(),
        ));
        traces.push(probe.take_trace());
    }
    let lock_findings = vnpu_conc::analyze_all(&traces);
    assert!(
        lock_findings.is_empty(),
        "shipped code must produce zero CONC findings: {lock_findings:?}"
    );
    let digest_findings = vnpu_conc::compare_all(&chains);
    assert!(
        digest_findings.is_empty(),
        "phase digests must agree across widths: {digest_findings:?}"
    );
    let events: usize = traces.iter().map(Trace::len).sum();
    println!(
        "[conc] probe pass clean at workers = {WIDTHS:?}: {events} lock \
         events traced, zero CONC findings, digest chains identical, \
         reports byte-identical to the uninstrumented baseline\n"
    );
}
