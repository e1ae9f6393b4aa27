//! The cluster facade: several [`Hypervisor`]-managed chips behind one
//! admission queue — the fleet shape datacenter accelerator serving
//! actually takes (pods of chips, not a chip).
//!
//! The paper virtualizes one inter-core-connected NPU; its admission and
//! mapping machinery is chip-local. A [`Cluster`] lifts that to N chips
//! (heterogeneous [`SocConfig`]s allowed) with three pieces:
//!
//! * a **cluster-level admission queue** reusing the same open
//!   [`AdmissionPolicy`] trait objects the single-chip path uses — one
//!   policy orders requests across the whole fleet;
//! * a [`ChipPlacement`] trait deciding *which chip* each request maps
//!   onto ([`FirstFit`], [`BestFitFragmentation`], [`LeastLoaded`] ship);
//! * a **shared [`ShardedMappingCache`]**: every chip's placements are
//!   memoized in one table (sharded by key hash, each shard its own
//!   eviction ring; per-chip [`MappingCache`]s serve only advisory fit
//!   hints). Entries never alias across chips because each key
//!   carries the chip's `labeled_hash` topology fingerprint and its
//!   reconfiguration generation — two identical free regions on two
//!   identical chip models *do* share entries, which is the point.
//!   After reconfigs, soundness relies on the generation reflecting the
//!   actual hardware state: the serve layer mirrors the machine's
//!   reconfig hash chain ([`Hypervisor::set_topology_generation`]), so
//!   identical models share only while their reconfig histories match;
//!   the bare [`Hypervisor::bump_topology_generation`] counter is only
//!   appropriate for chips that don't share a cache with same-model
//!   peers (see its docs).
//!
//! Placement attempts stay transactional per chip (a failed
//! [`Hypervisor::create_vnpu_in`] changes nothing), so cluster admission
//! inherits the single-chip leak-freedom invariants.
//!
//! Admission, drain and defrag all run on the caller's thread: each is a
//! short control-plane decision per request or per chip, cheaper than a
//! hand-off to a worker thread. Only the serve layer's machine epochs
//! fan out (see `vnpu_serve::ServeConfig::workers`).

use crate::admission::{
    AdmissionPolicy, AdmissionQueue, AdmissionTick, FitHint, FragmentationStats, PendingView,
    RequestId, TickVerdict,
};
use crate::drain::{ChipSchedState, DrainMove, DrainPolicy, DrainStep};
use crate::hypervisor::Hypervisor;
use crate::ids::VmId;
use crate::plan::{CommitReceipt, Defragmenter, PlanOp, ReconfigBudget, ReconfigCost};
use crate::vnpu::{VirtualNpu, VnpuRequest};
use crate::{Result, VnpuError};
use std::fmt;
use std::sync::Arc;
use vnpu_sim::SocConfig;
use vnpu_topo::cache::{CacheStats, MappingCache, ShardedMappingCache};
use vnpu_topo::TopoError;

/// A virtual NPU's cluster-wide identity: which chip it lives on, and
/// its VM id *on that chip* (chips number their VMs independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterVmId {
    /// Index of the owning chip within the cluster.
    pub chip: usize,
    /// The chip-local VM id.
    pub vm: VmId,
}

impl fmt::Display for ClusterVmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chip{}/{}", self.chip, self.vm)
    }
}

/// A point-in-time picture of one chip, handed to [`ChipPlacement`]
/// implementations (derived from [`Hypervisor::fragmentation`] plus the
/// static capacities).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSnapshot {
    /// Index of the chip within the cluster.
    pub chip: usize,
    /// Physical cores on the chip.
    pub total_cores: u32,
    /// Currently free cores.
    pub free_cores: u32,
    /// Cores currently masked out by the hardware-fault layer
    /// ([`Hypervisor::set_core_faulted`]). Never part of `free_cores`,
    /// and excluded from the capacity a temporal-sharing request may
    /// widen onto.
    pub faulted_cores: u32,
    /// Connected components of the free-core region.
    pub free_components: usize,
    /// Size of the largest connected free component.
    pub largest_free_component: usize,
    /// Largest free component over all free cores, in `[0, 1]`.
    pub free_connectivity: f64,
    /// Free HBM bytes.
    pub hbm_free_bytes: u64,
    /// Total HBM bytes.
    pub hbm_total_bytes: u64,
    /// Largest single free buddy block.
    pub hbm_largest_free_block: u64,
    /// Buddy external fragmentation, in `[0, 1]`.
    pub hbm_external_fragmentation: f64,
    /// Live virtual NPUs on the chip.
    pub live_vnpus: usize,
    /// Whether the chip may be nominated for placements — `false` while
    /// it is draining for (or under) maintenance. Drained chips are never
    /// nominated by the shipped [`ChipPlacement`] policies (they gate on
    /// [`ChipSnapshot::fits`]) and never advertised by the fleet
    /// [`Cluster::fit_hint`].
    pub schedulable: bool,
}

impl ChipSnapshot {
    /// Whether the chip's capacity can possibly host `req` (count checks
    /// only — the topology mapper has the final word). Temporal-sharing
    /// requests (§7 over-provisioning) may widen onto busy cores, so for
    /// them only the chip's *total* core count gates; HBM is never
    /// time-shared and must be free either way. Unschedulable (draining)
    /// chips fit nothing — the fleet-wide schedulability mask.
    pub fn fits(&self, req: &PendingView) -> bool {
        self.schedulable && self.fits_raw(req.cores, req.memory_bytes, req.temporal_sharing)
    }

    /// The raw capacity check behind [`ChipSnapshot::fits`], *without*
    /// the schedulability gate — drain policies use it to size up
    /// destination chips they already know to be schedulable.
    pub fn fits_raw(&self, cores: u32, memory_bytes: u64, temporal_sharing: bool) -> bool {
        let cores_ok = if temporal_sharing {
            // Dead cores cannot be time-shared either.
            self.total_cores.saturating_sub(self.faulted_cores) >= cores
        } else {
            self.free_cores >= cores
        };
        cores_ok && self.hbm_free_bytes >= memory_bytes
    }

    /// The snapshot re-expressed as the per-chip [`FragmentationStats`] —
    /// one free-region scan serves admission, fit-hint probing, the
    /// serving layer's fragmentation sample *and* defragmentation (the
    /// pieces that previously each re-scanned).
    pub fn fragmentation_stats(&self) -> FragmentationStats {
        FragmentationStats {
            free_cores: self.free_cores,
            free_components: self.free_components,
            largest_free_component: self.largest_free_component,
            free_connectivity: self.free_connectivity,
            hbm_free_bytes: self.hbm_free_bytes,
            hbm_largest_free_block: self.hbm_largest_free_block,
            hbm_external_fragmentation: self.hbm_external_fragmentation,
        }
    }
}

/// Decides which chips a request is attempted on, and in what order.
///
/// Object-safe for the same reason [`AdmissionPolicy`] is: deployments
/// bring their own placement logic (power capping, tenancy affinity,
/// failure domains) without this crate enumerating it. Implementations
/// must be deterministic functions of their inputs or cluster runs stop
/// being reproducible.
pub trait ChipPlacement: fmt::Debug + Send + Sync {
    /// Short name for reports and debugging.
    fn name(&self) -> &'static str;

    /// Chip indices to attempt for `req`, in preference order; chips not
    /// listed are not attempted this round. Returning an empty vector
    /// makes the attempt fail (the request stays queued under its
    /// admission policy's rules).
    fn chip_order(&self, req: &PendingView, chips: &[ChipSnapshot]) -> Vec<usize>;
}

/// Attempt chips in index order, skipping only those that cannot fit the
/// request's raw core/memory counts. The baseline: deterministic, cheap,
/// and it concentrates load on low-index chips (keeping high-index chips
/// drained for large requests).
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl ChipPlacement for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn chip_order(&self, req: &PendingView, chips: &[ChipSnapshot]) -> Vec<usize> {
        chips
            .iter()
            .filter(|c| c.fits(req))
            .map(|c| c.chip)
            .collect()
    }
}

/// Prefer the chip whose largest connected free component is the
/// *tightest* window still big enough for the request — filling snug
/// windows first preserves the other chips' large windows against
/// topology lock-in (§4.3 writ fleet-wide). Chips whose largest window
/// is too small are still attempted last (temporal sharing or
/// disconnected-mode strategies may yet place there).
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFitFragmentation;

impl ChipPlacement for BestFitFragmentation {
    fn name(&self) -> &'static str {
        "best-fit-fragmentation"
    }

    fn chip_order(&self, req: &PendingView, chips: &[ChipSnapshot]) -> Vec<usize> {
        let mut fitting: Vec<&ChipSnapshot> = chips.iter().filter(|c| c.fits(req)).collect();
        fitting.sort_by_key(|c| {
            let window = c.largest_free_component as u32;
            // Chips with a window big enough sort by window slack
            // (tightest first); window-deficient chips go after all of
            // them, least-deficient first.
            let deficit = req.cores.saturating_sub(window);
            let slack = window.saturating_sub(req.cores);
            (deficit, slack, c.chip)
        });
        fitting.into_iter().map(|c| c.chip).collect()
    }
}

/// Prefer the chip with the most free cores (ties: more free HBM, then
/// lower index) — spreads load evenly across the fleet, minimizing
/// per-chip NoC/HBM contention at the cost of fragmenting every chip a
/// little.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl ChipPlacement for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn chip_order(&self, req: &PendingView, chips: &[ChipSnapshot]) -> Vec<usize> {
        let mut fitting: Vec<&ChipSnapshot> = chips.iter().filter(|c| c.fits(req)).collect();
        fitting.sort_by(|a, b| {
            b.free_cores
                .cmp(&a.free_cores)
                .then(b.hbm_free_bytes.cmp(&a.hbm_free_bytes))
                .then(a.chip.cmp(&b.chip))
        });
        fitting.into_iter().map(|c| c.chip).collect()
    }
}

/// Terminal outcome of one cluster-queued request during an admission
/// tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterAdmissionOutcome {
    /// Placed on a chip; the virtual NPU is live.
    Admitted(ClusterVmId),
    /// Permanently rejected (fits no chip in the fleet, or attempt
    /// budget spent). Carries the error from the *last* chip attempted.
    Rejected(VnpuError),
}

/// One terminal cluster admission decision, as returned by
/// [`Cluster::process_admissions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterAdmissionEvent {
    /// The request this decision is about.
    pub id: RequestId,
    /// What happened to it.
    pub outcome: ClusterAdmissionOutcome,
    /// The cluster-wide cumulative configuration-cycle counter
    /// ([`Cluster::total_config_cycles`]) at the instant of this
    /// decision (same incremental-stamping contract as the single-chip
    /// [`crate::admission::AdmissionEvent::config_cycles_total`]).
    pub config_cycles_total: u64,
    /// On a terminal no-candidate rejection: the largest request shape
    /// that would currently fit on *some* chip (the fleet-wide best
    /// hint), probed through the shared cache.
    pub fit_hint: Option<FitHint>,
}

/// N hypervisor-managed chips behind one admission queue, one placement
/// policy, and one shared mapping cache.
#[derive(Debug)]
pub struct Cluster {
    chips: Vec<Hypervisor>,
    /// The shared placement cache, sharded behind per-shard locks. All
    /// cache traffic runs on the caller's thread in admission order, so
    /// contents and counters are identical at every worker count.
    cache: ShardedMappingCache,
    /// Dedicated per-chip caches for fit-hint and defrag probes, so
    /// advisory probing never distorts the shared placement cache's
    /// hit-rate statistics. Hint values are
    /// deterministic pure functions of the owning chip's state, so
    /// isolating them per chip changes no planned outcome. Each cache
    /// sits in a [`vnpu_conc::sync::Lock`] cell (site `HINT_CACHE`,
    /// shard = chip index): exclusivity is still enforced by ownership,
    /// but every access window is visible to an installed concurrency
    /// probe.
    hint_caches: Vec<vnpu_conc::sync::Lock<MappingCache>>,
    admissions: AdmissionQueue,
    placement: Arc<dyn ChipPlacement>,
    /// Per-chip schedulability / drain lifecycle state, in chip order.
    sched: Vec<ChipSchedState>,
    /// Memoized per-chip snapshots (`None` = dirty): every mutating path
    /// invalidates the touched chip, so a tick's snapshot vector is
    /// assembled from cached entries instead of re-scanning every chip's
    /// free region each tick.
    snap_cache: Vec<Option<ChipSnapshot>>,
}

impl Cluster {
    /// A cluster over the given chip models (heterogeneous configs
    /// welcome), each with the default HBM capacity, FIFO admission and
    /// [`FirstFit`] placement.
    ///
    /// # Panics
    ///
    /// Panics when `configs` is empty — a cluster owns at least one chip.
    pub fn new(configs: Vec<SocConfig>) -> Self {
        Self::with_chips(configs.into_iter().map(Hypervisor::new).collect())
    }

    /// A cluster over pre-built hypervisors (use this for per-chip HBM
    /// sizes or pre-reserved cores).
    ///
    /// # Panics
    ///
    /// Panics when `chips` is empty.
    pub fn with_chips(chips: Vec<Hypervisor>) -> Self {
        assert!(!chips.is_empty(), "a cluster owns at least one chip");
        let count = chips.len();
        let sched = vec![ChipSchedState::Schedulable; count];
        Cluster {
            chips,
            cache: ShardedMappingCache::default(),
            hint_caches: (0..count)
                .map(|i| {
                    vnpu_conc::sync::Lock::new(
                        &vnpu_conc::sites::HINT_CACHE,
                        MappingCache::default(),
                    )
                    .at_shard(i as u32)
                })
                .collect(),
            admissions: AdmissionQueue::default(),
            placement: Arc::new(FirstFit),
            sched,
            snap_cache: vec![None; count],
        }
    }

    /// Installs (or removes) the concurrency probe on every lock the
    /// cluster owns: the per-chip hint caches and the shared mapping
    /// cache's shard locks.
    pub fn set_conc_probe(&mut self, probe: Option<Arc<dyn vnpu_conc::ConcProbe>>) {
        for cache in &mut self.hint_caches {
            cache.set_probe(probe.clone());
        }
        self.cache.set_probe(probe);
    }

    /// Number of chips.
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// The chip at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn chip(&self, index: usize) -> &Hypervisor {
        &self.chips[index]
    }

    /// Mutable access to the chip at `index` — administrative operations
    /// (reserving cores, adopting a reconfiguration generation). Chips
    /// stay self-consistent under any such operation. One caveat for
    /// clusters with *identical* chip models: their cache keys share a
    /// `phys_key`, so after a hardware reconfig use
    /// [`Hypervisor::set_topology_generation`] with a value derived from
    /// the actual hardware state (as the serve layer does) rather than
    /// the bare [`Hypervisor::bump_topology_generation`] counter — two
    /// same-model chips bumped the same number of times after
    /// *different* reconfigs would otherwise alias (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn chip_mut(&mut self, index: usize) -> &mut Hypervisor {
        // The caller may mutate anything; the memoized snapshot is stale.
        self.mark_dirty(index);
        &mut self.chips[index]
    }

    /// The chips, in index order.
    pub fn chips(&self) -> impl Iterator<Item = &Hypervisor> {
        self.chips.iter()
    }

    /// Replaces the cluster admission ordering policy (queued requests
    /// are kept).
    pub fn set_admission_policy(&mut self, policy: Arc<dyn AdmissionPolicy>) {
        self.admissions.set_policy(policy);
    }

    /// Replaces the chip-placement policy.
    pub fn set_placement(&mut self, placement: Arc<dyn ChipPlacement>) {
        self.placement = placement;
    }

    /// The active chip-placement policy.
    pub fn placement(&self) -> &Arc<dyn ChipPlacement> {
        &self.placement
    }

    /// Caps placement attempts per queued request.
    pub fn set_max_attempts(&mut self, max_attempts: Option<u32>) {
        self.admissions.set_max_attempts(max_attempts);
    }

    /// Queues a create request for the next admission tick.
    pub fn submit(&mut self, req: VnpuRequest) -> RequestId {
        self.admissions.push(req)
    }

    /// Number of requests waiting for placement.
    pub fn pending_count(&self) -> usize {
        self.admissions.len()
    }

    /// The cluster admission queue (policy, attempt budget, queued IDs).
    pub fn admissions(&self) -> &AdmissionQueue {
        &self.admissions
    }

    /// Shared mapping-cache counters (all chips fold into one table).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cluster-wide monotone resource-freeing counter: the sum of every
    /// chip's [`Hypervisor::free_events`].
    pub fn free_events(&self) -> u64 {
        self.chips.iter().map(Hypervisor::free_events).sum()
    }

    /// Cluster-wide cumulative meta-table configuration cycles.
    pub fn total_config_cycles(&self) -> u64 {
        self.chips.iter().map(Hypervisor::total_config_cycles).sum()
    }

    /// Live virtual NPUs across all chips.
    pub fn live_count(&self) -> usize {
        self.chips.iter().map(Hypervisor::vnpu_count).sum()
    }

    /// Total physical cores across all chips.
    pub fn total_cores(&self) -> u32 {
        self.chips.iter().map(|h| h.config().core_count()).sum()
    }

    /// Free cores across all chips.
    pub fn free_cores(&self) -> u32 {
        self.chips.iter().map(Hypervisor::free_core_count).sum()
    }

    /// Per-chip fragmentation pictures, in chip order.
    pub fn fragmentation(&self) -> Vec<FragmentationStats> {
        self.chips.iter().map(Hypervisor::fragmentation).collect()
    }

    /// Per-chip placement snapshots, in chip order.
    pub fn snapshots(&self) -> Vec<ChipSnapshot> {
        (0..self.chips.len()).map(|i| self.snapshot_of(i)).collect()
    }

    /// The placement snapshot of one chip.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn snapshot_of(&self, index: usize) -> ChipSnapshot {
        let h = &self.chips[index];
        let frag = h.fragmentation();
        ChipSnapshot {
            chip: index,
            total_cores: h.config().core_count(),
            free_cores: frag.free_cores,
            faulted_cores: h.faulted_core_count(),
            free_components: frag.free_components,
            largest_free_component: frag.largest_free_component,
            free_connectivity: frag.free_connectivity,
            hbm_free_bytes: frag.hbm_free_bytes,
            hbm_total_bytes: h.hbm_total_bytes(),
            hbm_largest_free_block: frag.hbm_largest_free_block,
            hbm_external_fragmentation: frag.hbm_external_fragmentation,
            live_vnpus: h.vnpu_count(),
            schedulable: self.sched[index] == ChipSchedState::Schedulable,
        }
    }

    /// Marks one chip's memoized snapshot stale. Every mutating path
    /// (placements, teardowns, migrations, drain-lifecycle transitions,
    /// [`Cluster::chip_mut`]) calls this, so [`Cluster::tick_snapshots`]
    /// re-scans only the chips that actually changed.
    fn mark_dirty(&mut self, chip: usize) {
        if let Some(slot) = self.snap_cache.get_mut(chip) {
            *slot = None;
        }
    }

    /// The per-chip snapshots, in chip order, served from the memoized
    /// store — only chips touched since the last call are re-scanned.
    /// This is the tick-rate entry point; [`Cluster::snapshots`] stays
    /// the always-fresh (read-only) form for audits and tests.
    pub fn tick_snapshots(&mut self) -> Vec<ChipSnapshot> {
        (0..self.chips.len())
            .map(|i| self.snapshot_cached(i))
            .collect()
    }

    /// One chip's snapshot from the memoized store (re-scanned only when
    /// stale).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn snapshot_cached(&mut self, index: usize) -> ChipSnapshot {
        if self.snap_cache[index].is_none() {
            self.snap_cache[index] = Some(self.snapshot_of(index));
        }
        self.snap_cache[index].clone().expect("just filled")
    }

    /// Recomputes one chip's snapshot and refreshes the memoized store —
    /// the serve loop uses this for chips its drain/defrag bookkeeping
    /// just touched, keeping the tick at one free-region scan per
    /// *changed* chip.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn snapshot_refresh(&mut self, index: usize) -> ChipSnapshot {
        let snap = self.snapshot_of(index);
        self.snap_cache[index] = Some(snap.clone());
        snap
    }

    // ------------------------------------------------------------------
    // Drain-for-maintenance (see [`crate::drain`]).
    // ------------------------------------------------------------------

    /// The chip's position in the drain lifecycle.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for an out-of-range index.
    pub fn drain_state(&self, chip: usize) -> Result<ChipSchedState> {
        self.sched.get(chip).copied().ok_or(VnpuError::UnknownChip {
            chip,
            count: self.chips.len(),
        })
    }

    /// Whether the chip may currently be nominated for placements.
    /// Out-of-range indices are simply not schedulable.
    pub fn is_schedulable(&self, chip: usize) -> bool {
        self.sched.get(chip) == Some(&ChipSchedState::Schedulable)
    }

    /// Takes a chip out of service for maintenance: from this call on it
    /// is never nominated by the placement policy, never advertised by
    /// the fleet [`Cluster::fit_hint`], and refuses direct placements
    /// ([`Cluster::create_on`]) and inbound migrations. Its live tenants
    /// keep running and are moved off by budgeted
    /// [`Cluster::drain_step`]s. Outstanding placement plans against the
    /// chip are staled ([`Hypervisor::invalidate_plans`]) so half-planned
    /// reshapes cannot land mid-drain.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad index; [`VnpuError::Drain`]
    /// when the chip is already draining or drained.
    pub fn begin_drain(&mut self, chip: usize) -> Result<()> {
        let state = self.drain_state(chip)?;
        if state != ChipSchedState::Schedulable {
            return Err(VnpuError::Drain {
                chip,
                detail: "chip is already draining or drained",
            });
        }
        self.sched[chip] = ChipSchedState::Draining;
        self.chips[chip].invalidate_plans();
        self.mark_dirty(chip);
        Ok(())
    }

    /// Runs one budgeted evacuation step on a draining chip: the policy
    /// proposes this epoch's `(tenant, destination)` set within `budget`
    /// (destinations are the schedulable chips' snapshots), and each
    /// proposal is applied through the transactional
    /// [`Cluster::migrate_to_chip`] — create-before-destroy, so a failed
    /// move leaves the tenant on the source chip. Proposals that no
    /// longer apply (tenant departed, destination stopped fitting,
    /// destination no longer schedulable) are skipped, not errors: the
    /// tenants stay for a later step.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad index; [`VnpuError::Drain`]
    /// when the chip is not draining.
    pub fn drain_step(
        &mut self,
        chip: usize,
        policy: &dyn DrainPolicy,
        budget: &ReconfigBudget,
    ) -> Result<DrainStep> {
        if self.drain_state(chip)? != ChipSchedState::Draining {
            return Err(VnpuError::Drain {
                chip,
                detail: "drain_step requires begin_drain first",
            });
        }
        let destinations: Vec<ChipSnapshot> = (0..self.chips.len())
            .filter(|&i| i != chip && self.is_schedulable(i))
            .map(|i| self.snapshot_of(i))
            .collect();
        self.drain_step_inner(chip, policy, budget, &destinations)
    }

    /// [`Cluster::drain_step`] with the per-chip [`ChipSnapshot`]s
    /// already known — the serve loop passes the tick's snapshots (in
    /// chip order) so the maintenance phase shares the tick's single
    /// free-region scan instead of re-scanning every destination. Stale
    /// destination entries only cause skipped proposals (each move is
    /// transactional), never bad state.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::drain_step`].
    pub fn drain_step_with_snapshots(
        &mut self,
        chip: usize,
        policy: &dyn DrainPolicy,
        budget: &ReconfigBudget,
        snapshots: &[ChipSnapshot],
    ) -> Result<DrainStep> {
        if self.drain_state(chip)? != ChipSchedState::Draining {
            return Err(VnpuError::Drain {
                chip,
                detail: "drain_step requires begin_drain first",
            });
        }
        let destinations: Vec<ChipSnapshot> = snapshots
            .iter()
            .filter(|s| s.chip != chip && s.schedulable)
            .cloned()
            .collect();
        self.drain_step_inner(chip, policy, budget, &destinations)
    }

    fn drain_step_inner(
        &mut self,
        chip: usize,
        policy: &dyn DrainPolicy,
        budget: &ReconfigBudget,
        destinations: &[ChipSnapshot],
    ) -> Result<DrainStep> {
        let proposals = policy.plan_step(&self.chips[chip], destinations, budget);
        Ok(self.apply_drain_proposals(chip, proposals, budget))
    }

    /// Runs the maintenance phase for *every* draining chip in one call:
    /// each chip's evacuation step is planned read-only against the
    /// tick's snapshots, then the plans are applied transactionally in
    /// chip order. Returns `(chip, step)` pairs in chip order. Planning
    /// runs on the caller's thread: on the 16-chip fleet it took under
    /// 1 ms over a whole 240-tick run, less per tick than one worker-pool
    /// round trip.
    ///
    /// With a single draining chip (the common maintenance scenario) it
    /// is also exactly
    /// [`Cluster::drain_step_with_snapshots`]; with several, every plan
    /// sees the tick's snapshots rather than its predecessors' moves —
    /// a proposal staled by an earlier chip's evacuation is skipped by
    /// the transactional apply, never applied wrongly.
    ///
    /// # Errors
    ///
    /// [`VnpuError::Drain`] is never returned (only draining chips are
    /// selected); errors propagate as for [`Cluster::drain_step`].
    pub fn drain_tick(
        &mut self,
        policy: &dyn DrainPolicy,
        budget: &ReconfigBudget,
        snapshots: &[ChipSnapshot],
    ) -> Result<Vec<(usize, DrainStep)>> {
        let draining: Vec<usize> = (0..self.chips.len())
            .filter(|&c| self.sched[c] == ChipSchedState::Draining)
            .collect();
        if draining.is_empty() {
            return Ok(Vec::new());
        }
        let destinations_for = |chip: usize| -> Vec<ChipSnapshot> {
            snapshots
                .iter()
                .filter(|s| s.chip != chip && s.schedulable)
                .cloned()
                .collect()
        };
        let plans: Vec<(usize, Vec<(VmId, usize)>)> = draining
            .iter()
            .map(|&chip| {
                let destinations = destinations_for(chip);
                (
                    chip,
                    policy.plan_step(&self.chips[chip], &destinations, budget),
                )
            })
            .collect();
        let mut steps = Vec::with_capacity(plans.len());
        for (chip, proposals) in plans {
            let step = self.apply_drain_proposals(chip, proposals, budget);
            steps.push((chip, step));
        }
        Ok(steps)
    }

    /// Applies one chip's drain proposals under the budget — the
    /// sequential half of a drain step, shared by the one-chip and
    /// whole-tick entry points.
    fn apply_drain_proposals(
        &mut self,
        chip: usize,
        proposals: Vec<(VmId, usize)>,
        budget: &ReconfigBudget,
    ) -> DrainStep {
        let total_proposals = proposals.len();
        let mut step = DrainStep::default();
        for (applied, (vm, dest)) in proposals.into_iter().enumerate() {
            // Proposals are advisory; the budget is a hard per-step cap
            // even for non-conforming policies. Admission gates on the
            // tenant's *estimated* cost (the landed copy's meta-tables
            // may price slightly differently), so the post-move check
            // below bounds any estimate overshoot to a single move.
            let affordable = self.chips[chip].vnpu(vm).is_ok_and(|v| {
                let estimate = crate::drain::estimated_move_cost(&self.chips[chip], v);
                budget.admits(&step.total, step.moved.len(), &estimate)
            });
            if !affordable {
                step.skipped += 1;
                continue;
            }
            let from = ClusterVmId { chip, vm };
            match self.migrate_to_chip(from, dest) {
                Ok((to, cost)) => {
                    step.total = step.total.plus(cost);
                    step.moved.push(DrainMove { from, to, cost });
                    // Paid costs reached (or overshot) a budget cap: no
                    // further proposal can be admitted this step.
                    if !budget.admits(&step.total, step.moved.len(), &ReconfigCost::default()) {
                        step.skipped += total_proposals - applied - 1;
                        break;
                    }
                }
                Err(_) => step.skipped += 1,
            }
        }
        step.remaining = self.chips[chip].vnpu_count();
        step
    }

    /// Declares the evacuation finished: the chip must hold zero tenants.
    /// It stays unschedulable (the maintenance window is open) until
    /// [`Cluster::undrain`] hands it back.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad index; [`VnpuError::Drain`]
    /// when the chip is not draining or still has residents.
    pub fn complete_drain(&mut self, chip: usize) -> Result<()> {
        if self.drain_state(chip)? != ChipSchedState::Draining {
            return Err(VnpuError::Drain {
                chip,
                detail: "complete_drain requires an active drain",
            });
        }
        if self.chips[chip].vnpu_count() > 0 {
            return Err(VnpuError::Drain {
                chip,
                detail: "chip still has resident tenants",
            });
        }
        self.sched[chip] = ChipSchedState::Drained;
        self.mark_dirty(chip);
        Ok(())
    }

    /// Hands a draining or drained chip back to the schedulers: it is
    /// nominated and advertised again exactly as before the drain. The
    /// cluster's hint cache is dropped so no pre-drain exhaustion proof
    /// can shadow the chip's post-maintenance free region.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad index; [`VnpuError::Drain`]
    /// when the chip was not draining or drained.
    pub fn undrain(&mut self, chip: usize) -> Result<()> {
        if self.drain_state(chip)? == ChipSchedState::Schedulable {
            return Err(VnpuError::Drain {
                chip,
                detail: "chip is not draining or drained",
            });
        }
        self.sched[chip] = ChipSchedState::Schedulable;
        for cache in &mut self.hint_caches {
            cache.with(|hc| hc.clear());
        }
        self.mark_dirty(chip);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Hardware-fault lifecycle (the `vnpu_fault` layer's cluster hooks).
    // ------------------------------------------------------------------

    /// One chip's fault-mask transition plus the cluster-level cache
    /// hygiene every such transition needs: the chip's free region just
    /// changed shape in a way advisory probes cannot see, so (as in
    /// [`Cluster::undrain`]) the dedicated hint caches are dropped —
    /// a pre-fault fit hint or exhaustion proof must not shadow the
    /// post-fault region — and the chip's memoized snapshot is marked
    /// stale. The *placement* cache needs no flush: its keys carry the
    /// chip's reconfiguration generation, which the fault layer evolves
    /// on every onset/repair, so stale entries expire by key.
    fn after_fault_transition(&mut self, chip: usize, changed: bool) {
        if !changed {
            return;
        }
        for cache in &mut self.hint_caches {
            cache.with(|hc| hc.clear());
        }
        self.mark_dirty(chip);
    }

    /// Marks one core on one chip faulted. Returns whether the mask
    /// changed (idempotent, like [`Hypervisor::set_core_faulted`]).
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad chip index, else as for
    /// [`Hypervisor::set_core_faulted`].
    pub fn fault_core(&mut self, chip: usize, core: u32) -> Result<bool> {
        self.set_core_fault_state(chip, core, true)
    }

    /// Repairs a previously faulted core: it rejoins the free region (if
    /// unowned) and counts as a retry-after-free event.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::fault_core`].
    pub fn repair_core(&mut self, chip: usize, core: u32) -> Result<bool> {
        self.set_core_fault_state(chip, core, false)
    }

    fn set_core_fault_state(&mut self, chip: usize, core: u32, faulted: bool) -> Result<bool> {
        let count = self.chips.len();
        let changed = self
            .chips
            .get_mut(chip)
            .ok_or(VnpuError::UnknownChip { chip, count })?
            .set_core_faulted(core, faulted)?;
        self.after_fault_transition(chip, changed);
        Ok(changed)
    }

    /// Marks one undirected NoC link on one chip faulted.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad chip index.
    pub fn fault_link(&mut self, chip: usize, a: u32, b: u32) -> Result<bool> {
        self.set_link_fault_state(chip, a, b, true)
    }

    /// Repairs a previously faulted link.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::fault_link`].
    pub fn repair_link(&mut self, chip: usize, a: u32, b: u32) -> Result<bool> {
        self.set_link_fault_state(chip, a, b, false)
    }

    fn set_link_fault_state(&mut self, chip: usize, a: u32, b: u32, faulted: bool) -> Result<bool> {
        let count = self.chips.len();
        let changed = self
            .chips
            .get_mut(chip)
            .ok_or(VnpuError::UnknownChip { chip, count })?
            .set_link_faulted(a, b, faulted);
        self.after_fault_transition(chip, changed);
        Ok(changed)
    }

    /// Provisions a virtual NPU on a specific chip, through the shared
    /// cache — the direct (queue-bypassing) path.
    ///
    /// # Errors
    ///
    /// As for [`Hypervisor::create_vnpu`]; additionally
    /// [`VnpuError::Drain`] when the chip is draining or drained (even
    /// the queue-bypassing path honours the maintenance mask),
    /// [`VnpuError::UnknownVm`] is never returned here, and an
    /// out-of-range chip index panics.
    pub fn create_on(&mut self, chip: usize, req: VnpuRequest) -> Result<ClusterVmId> {
        if chip < self.chips.len() && !self.is_schedulable(chip) {
            return Err(VnpuError::Drain {
                chip,
                detail: "cannot place on a draining chip",
            });
        }
        let mut shared = &self.cache;
        let vm = self.chips[chip].create_vnpu_in(req, &mut shared)?;
        self.mark_dirty(chip);
        Ok(ClusterVmId { chip, vm })
    }

    /// Looks up a live virtual NPU.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for an out-of-range chip index,
    /// [`VnpuError::UnknownVm`] for stale IDs.
    pub fn vnpu(&self, id: ClusterVmId) -> Result<&VirtualNpu> {
        self.chips
            .get(id.chip)
            .ok_or(VnpuError::UnknownChip {
                chip: id.chip,
                count: self.chips.len(),
            })?
            .vnpu(id.vm)
    }

    /// Tears down a virtual NPU, releasing its chip's cores and memory.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for an out-of-range chip index,
    /// otherwise as for [`Hypervisor::destroy_vnpu`].
    pub fn destroy(&mut self, id: ClusterVmId) -> Result<()> {
        let count = self.chips.len();
        self.chips
            .get_mut(id.chip)
            .ok_or(VnpuError::UnknownChip {
                chip: id.chip,
                count,
            })?
            .destroy_vnpu(id.vm)?;
        self.mark_dirty(id.chip);
        Ok(())
    }

    /// The fleet-wide fit hint: the largest shape that would currently
    /// place on *some* schedulable chip, probed through the cluster's
    /// dedicated hint cache (the shared placement cache's statistics stay
    /// untouched). Draining and drained chips are never advertised.
    /// Chips are probed biggest-island-first and pruned once no remaining
    /// chip's largest free island can beat the best hint found.
    pub fn fit_hint(&mut self) -> Option<FitHint> {
        let islands: Vec<usize> = self
            .chips
            .iter()
            .map(|h| h.fragmentation().largest_free_component)
            .collect();
        self.fit_hint_bounded(&islands)
    }

    /// [`Cluster::fit_hint`] with every chip's largest connected free
    /// component already known — the admission tick passes the islands
    /// from its per-tick [`ChipSnapshot`]s, so fit-hint probing shares
    /// the tick's single free-region scan instead of re-running one per
    /// chip.
    fn fit_hint_bounded(&mut self, islands: &[usize]) -> Option<FitHint> {
        let mut order: Vec<(std::cmp::Reverse<usize>, usize)> = islands
            .iter()
            .enumerate()
            .map(|(i, &island)| (std::cmp::Reverse(island), i))
            .collect();
        order.sort_unstable();
        let mut best: Option<FitHint> = None;
        let Cluster {
            chips,
            hint_caches,
            sched,
            ..
        } = self;
        for (std::cmp::Reverse(island), i) in order {
            if best.is_some_and(|b| island as u32 <= b.cores) {
                break; // sorted descending: nothing further can beat it
            }
            if sched.get(i) != Some(&ChipSchedState::Schedulable) {
                continue; // a draining chip's window must not be advertised
            }
            if let Some(hint) = hint_caches[i].with(|hc| chips[i].fit_hint_in_bounded(hc, island)) {
                if best.is_none_or(|b| hint.cores > b.cores) {
                    best = Some(hint);
                }
            }
        }
        best
    }

    /// Runs one cluster admission tick: requests in (cluster) policy
    /// order, each attempted on the chips the placement policy nominates,
    /// in order, through the shared mapping cache. Returns the tick's
    /// terminal decisions; requests that stay queued produce no event.
    ///
    /// A request is terminally rejected when it cannot fit *any* chip
    /// even idle, or when its attempt budget is spent. Non-terminal
    /// failures defer to the admission policy's
    /// [`crate::admission::FailureAction`],
    /// exactly as on a single chip.
    pub fn process_admissions(&mut self) -> Vec<ClusterAdmissionEvent> {
        self.process_admissions_with_snapshots().0
    }

    /// [`Cluster::process_admissions`] returning the per-chip
    /// [`ChipSnapshot`]s as they stood *after* the tick's placements —
    /// the serving layer reuses them for its fragmentation sample and
    /// its defragmentation pass, so one free-region scan per chip serves
    /// the whole tick (admission filtering, fit-hint bounding, sampling
    /// and defrag all included).
    pub fn process_admissions_with_snapshots(
        &mut self,
    ) -> (Vec<ClusterAdmissionEvent>, Vec<ChipSnapshot>) {
        let mut events = Vec::new();
        let free_events_at_start = self.free_events();
        let mut tick = AdmissionTick::new();
        // Chip snapshots only change when a placement succeeds (failed
        // attempts are transactional), so serve them from the memoized
        // per-chip store and refresh only the placed chip's after each
        // admission.
        let mut snapshots = self.tick_snapshots();
        for id in self.admissions.attempt_order(free_events_at_start) {
            let Some(pending) = self.admissions.request(id) else {
                continue;
            };
            let view = pending.view();
            if tick.skips(&view) {
                continue;
            }
            let request = pending.req.clone();
            // Terminal = impossible fleet-wide: no chip's raw capacity
            // covers the request even when idle.
            let terminal = view.cores == 0
                || view.memory_bytes == 0
                || self.chips.iter().all(|h| {
                    view.cores > h.config().core_count() || view.memory_bytes > h.hbm_total_bytes()
                });
            let order = self.placement.chip_order(&view, &snapshots);
            let mut last_err: Option<VnpuError> = None;
            // Whether *any* chip rejected for want of a candidate this
            // attempt — the fleet hint must not depend on which chip the
            // placement policy happened to try last.
            let mut saw_no_candidate = false;
            let mut placed: Option<ClusterVmId> = None;
            // Nominated chips are attempted in nomination order on the
            // caller's thread, each through the shared cache's canonical
            // get/insert protocol; the first success wins.
            for &chip in &order {
                // Defense in depth against custom placement policies:
                // a draining chip is never attempted even when
                // nominated (the shipped policies already filter on
                // the snapshot's schedulability mask).
                if !self.is_schedulable(chip) {
                    continue;
                }
                let Some(hv) = self.chips.get_mut(chip) else {
                    continue;
                };
                let mut shared = &self.cache;
                match hv.create_vnpu_in(request.clone(), &mut shared) {
                    Ok(vm) => {
                        placed = Some(ClusterVmId { chip, vm });
                        break;
                    }
                    Err(err) => {
                        saw_no_candidate |=
                            matches!(err, VnpuError::Mapping(TopoError::NoCandidate));
                        last_err = Some(err);
                    }
                }
            }
            match placed {
                Some(cvm) => {
                    self.admissions.remove(id);
                    self.mark_dirty(cvm.chip);
                    snapshots[cvm.chip] = self.snapshot_cached(cvm.chip);
                    events.push(ClusterAdmissionEvent {
                        id,
                        outcome: ClusterAdmissionOutcome::Admitted(cvm),
                        config_cycles_total: self.total_config_cycles(),
                        fit_hint: None,
                    });
                }
                None => {
                    // No chip was nominated, or every nominated chip
                    // failed. An empty nomination means no chip's free
                    // capacity covers the request right now — blame the
                    // resource that actually blocks: cores if no chip has
                    // enough of them free, otherwise memory.
                    let err = last_err.unwrap_or_else(|| {
                        // Only schedulable chips count as capacity — a
                        // draining chip's free cores are not on offer.
                        let schedulable = || {
                            self.chips
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| self.sched[*i] == ChipSchedState::Schedulable)
                                .map(|(_, h)| h)
                        };
                        let cores_feasible = schedulable()
                            .any(|h| h.free_core_count() >= view.cores || view.temporal_sharing);
                        if cores_feasible {
                            VnpuError::Memory(vnpu_mem::MemError::OutOfMemory {
                                requested: view.memory_bytes,
                            })
                        } else {
                            VnpuError::Mapping(TopoError::InsufficientNodes {
                                requested: view.cores as usize,
                                available: schedulable()
                                    .map(|h| h.free_core_count() as usize)
                                    .max()
                                    .unwrap_or(0),
                            })
                        }
                    });
                    let free_events_now = self.free_events();
                    match tick.on_failure(&mut self.admissions, id, free_events_now, terminal) {
                        TickVerdict::Reject => {
                            let fit_hint = if saw_no_candidate {
                                // Reuse the tick's snapshots for the
                                // island bounds instead of re-scanning
                                // every chip's free region.
                                let islands: Vec<usize> =
                                    snapshots.iter().map(|s| s.largest_free_component).collect();
                                self.fit_hint_bounded(&islands)
                            } else {
                                None
                            };
                            events.push(ClusterAdmissionEvent {
                                id,
                                outcome: ClusterAdmissionOutcome::Rejected(err),
                                config_cycles_total: self.total_config_cycles(),
                                fit_hint,
                            });
                        }
                        TickVerdict::Defer => {}
                        TickVerdict::EndTick => break,
                    }
                }
            }
        }
        (events, snapshots)
    }

    /// Runs one background-defragmentation pass on one chip: the policy
    /// proposes migrations from `stats` (pass the tick's snapshot stats —
    /// [`ChipSnapshot::fragmentation_stats`] — to share the per-tick
    /// scan), the chip prices them through
    /// [`Hypervisor::plan_budgeted_in`] against the shared mapping cache
    /// (dropping everything past `budget`) and commits the affordable
    /// prefix atomically. Probing goes through the cluster's dedicated
    /// hint cache so advisory probes never distort placement-cache
    /// statistics. Returns the receipt (empty when the policy proposed
    /// nothing or nothing was affordable).
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad index; otherwise as for
    /// [`Hypervisor::plan_in`] / [`Hypervisor::commit_in`] (a failed
    /// commit leaves the chip untouched).
    pub fn defrag_chip(
        &mut self,
        chip: usize,
        defrag: &dyn Defragmenter,
        budget: &ReconfigBudget,
        stats: &FragmentationStats,
    ) -> Result<CommitReceipt> {
        let count = self.chips.len();
        let Cluster {
            chips, hint_caches, ..
        } = self;
        let hv = chips
            .get_mut(chip)
            .ok_or(VnpuError::UnknownChip { chip, count })?;
        let ops: Vec<PlanOp> = hint_caches[chip].with(|hc| defrag.plan(hv, stats, budget, hc));
        self.apply_defrag_ops(chip, ops, budget)
    }

    /// Runs one defragmentation pass over *every* schedulable chip: the
    /// policy plans each chip (reading only the owning chip and its
    /// dedicated hint cache), then the plans are priced and committed
    /// through the shared cache in chip order — the same shared-cache
    /// operation sequence the per-chip loop performs. Everything runs on
    /// the caller's thread. `snapshots` are the tick's per-chip snapshots
    /// (in chip order); each chip's [`FragmentationStats`] are taken from
    /// its entry. Returns `(chip, receipt)` pairs in chip order, one per
    /// schedulable chip (empty receipts included).
    ///
    /// # Errors
    ///
    /// As for [`Cluster::defrag_chip`] on the first failing chip.
    pub fn defrag_pass(
        &mut self,
        defrag: &dyn Defragmenter,
        budget: &ReconfigBudget,
        snapshots: &[ChipSnapshot],
    ) -> Result<Vec<(usize, CommitReceipt)>> {
        let targets: Vec<usize> = (0..self.chips.len())
            .filter(|&c| self.is_schedulable(c))
            .collect();
        if targets.is_empty() {
            return Ok(Vec::new());
        }
        let plans: Vec<(usize, Vec<PlanOp>)> = targets
            .iter()
            .map(|&chip| {
                let stats = snapshots[chip].fragmentation_stats();
                let Cluster {
                    chips, hint_caches, ..
                } = self;
                (
                    chip,
                    hint_caches[chip].with(|hc| defrag.plan(&chips[chip], &stats, budget, hc)),
                )
            })
            .collect();
        let mut receipts = Vec::with_capacity(plans.len());
        for (chip, ops) in plans {
            let receipt = self.apply_defrag_ops(chip, ops, budget)?;
            receipts.push((chip, receipt));
        }
        Ok(receipts)
    }

    /// Prices and commits one chip's defrag proposals through the shared
    /// cache — the sequential half of a defrag pass, shared by the
    /// one-chip and whole-fleet entry points.
    fn apply_defrag_ops(
        &mut self,
        chip: usize,
        ops: Vec<PlanOp>,
        budget: &ReconfigBudget,
    ) -> Result<CommitReceipt> {
        if ops.is_empty() {
            return Ok(CommitReceipt::default());
        }
        let count = self.chips.len();
        let mut shared = &self.cache;
        let hv = self
            .chips
            .get_mut(chip)
            .ok_or(VnpuError::UnknownChip { chip, count })?;
        // Proposals are advisory: a policy whose ops cannot be planned
        // (a tenant departed under it, a target stopped fitting) skips
        // this pass instead of failing the caller's serving tick.
        let Ok(txn) = hv.plan_budgeted_in(&ops, budget, &mut shared) else {
            return Ok(CommitReceipt::default());
        };
        // Nothing to do when every affordable op resolved to a no-op
        // migration — committing would pay a full rollback-snapshot
        // clone (and transient buddy churn) to change nothing.
        let all_noop_migrations = txn
            .ops()
            .iter()
            .all(|p| matches!(p.op, PlanOp::Migrate { .. }) && p.cost.is_zero());
        if txn.is_empty() || all_noop_migrations {
            return Ok(CommitReceipt::default());
        }
        let receipt = hv.commit_in(&txn, &mut shared)?;
        self.mark_dirty(chip);
        Ok(receipt)
    }

    /// Remaps a virtual NPU in place on its own chip under a
    /// caller-supplied strategy — the fault layer's remap-under-pin
    /// primitive. Unlike the same-chip arm of
    /// [`Cluster::migrate_to_chip`] (which re-runs the tenant's *own*
    /// strategy, preserving e.g. an exact-only guarantee), this lets a
    /// recovery policy substitute a laxer strategy when the tenant must
    /// escape a faulted core at any shape cost. The plan machinery never
    /// re-offers a faulted node, so a successful remap provably leaves
    /// every dead core behind. Works on draining chips too: recovery
    /// outranks the maintenance mask because the alternative is a tenant
    /// pinned to dead hardware.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] / [`VnpuError::UnknownVm`] for bad
    /// IDs; otherwise as for [`Hypervisor::plan_in`] /
    /// [`Hypervisor::commit_in`] (notably [`VnpuError::NoPartition`]
    /// when no fault-free placement of the tenant's shape exists).
    pub fn recover_in_place(
        &mut self,
        id: ClusterVmId,
        strategy: &vnpu_topo::mapping::Strategy,
    ) -> Result<ReconfigCost> {
        let count = self.chips.len();
        if id.chip >= count {
            return Err(VnpuError::UnknownChip {
                chip: id.chip,
                count,
            });
        }
        let ops = [PlanOp::Migrate {
            vm: id.vm,
            to: crate::plan::MigrationTarget::Remap(strategy.clone()),
        }];
        let mut shared = &self.cache;
        let hv = &mut self.chips[id.chip];
        let txn = hv.plan_in(&ops, &mut shared)?;
        let receipt = hv.commit_in(&txn, &mut shared)?;
        let cost = receipt
            .migrated
            .first()
            .map(|(_, c)| *c)
            .unwrap_or_default();
        self.mark_dirty(id.chip);
        Ok(cost)
    }

    /// Live-migrates a virtual NPU across chips: the tenant is recreated
    /// on `to_chip` through the shared cache (a transactional create) and
    /// destroyed on its source chip only after the create succeeds — a
    /// failure leaves the source untouched. The returned cost is
    /// dominated by the data-movement term: unlike an intra-chip move,
    /// the tenant's entire guest HBM crosses chips on top of its per-core
    /// scratchpad state.
    ///
    /// Same-chip "migrations" (`to_chip == id.chip`) are planned as a
    /// remap-under-pin transaction instead, which may be a free no-op.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] / [`VnpuError::UnknownVm`] for bad IDs;
    /// [`VnpuError::Drain`] when the destination chip is draining or
    /// drained (evacuations move *off* maintenance chips, never onto
    /// them); otherwise as for [`Hypervisor::plan_in`] /
    /// [`Hypervisor::commit_in`] on the target chip.
    pub fn migrate_to_chip(
        &mut self,
        id: ClusterVmId,
        to_chip: usize,
    ) -> Result<(ClusterVmId, ReconfigCost)> {
        let count = self.chips.len();
        if to_chip >= count {
            return Err(VnpuError::UnknownChip {
                chip: to_chip,
                count,
            });
        }
        if !self.is_schedulable(to_chip) {
            return Err(VnpuError::Drain {
                chip: to_chip,
                detail: "cannot migrate onto a draining chip",
            });
        }
        let src = self.chips.get(id.chip).ok_or(VnpuError::UnknownChip {
            chip: id.chip,
            count,
        })?;
        let vnpu = src.vnpu(id.vm)?;
        if to_chip == id.chip {
            // A same-chip "migration" is a remap-under-pin transaction —
            // under the tenant's own mapping strategy, so an exact-only
            // tenant keeps its edit-distance-0 guarantee.
            let ops = [PlanOp::Migrate {
                vm: id.vm,
                to: crate::plan::MigrationTarget::Remap(vnpu.mapping_strategy().clone()),
            }];
            let mut shared = &self.cache;
            let hv = &mut self.chips[id.chip];
            let txn = hv.plan_in(&ops, &mut shared)?;
            let receipt = hv.commit_in(&txn, &mut shared)?;
            let cost = receipt
                .migrated
                .first()
                .map(|(_, c)| *c)
                .unwrap_or_default();
            self.mark_dirty(id.chip);
            return Ok((id, cost));
        }
        // Rebuild the tenant's request faithfully: the landed copy keeps
        // every policy-level attribute of the original, including its
        // mapping strategy and temporal-sharing semantics.
        let mut req = VnpuRequest::custom(vnpu.virt_topology().clone())
            .mem_bytes(vnpu.mem_bytes())
            .mem_mode(vnpu.memory_mode())
            .noc_isolation(vnpu.has_noc_isolation())
            .temporal_sharing(vnpu.wants_temporal_sharing())
            .strategy(vnpu.mapping_strategy().clone());
        if let Some(cap) = vnpu.bandwidth_cap_bytes() {
            req = req.bandwidth_cap(cap);
        }
        // Cross-chip state: every byte of guest HBM plus each core's
        // scratchpad working set moves over the inter-chip fabric (the
        // same formula the drain estimate prices against).
        let data_move = crate::drain::cross_chip_data_bytes(src, vnpu);
        // The landed copy goes through the full provisioning pipeline
        // (not a planned create) so temporal-sharing tenants keep their
        // §7 over-provisioning path onto busy cores; create_vnpu_in is
        // itself all-or-nothing, and the source is only torn down after
        // the copy stands.
        let mut shared = &self.cache;
        let new_vm = self.chips[to_chip].create_vnpu_in(req, &mut shared)?;
        let landed = self.chips[to_chip].vnpu(new_vm).expect("just created");
        let routing_cycles = landed.routing_table().config_cycles();
        let rtt_cycles = vnpu_mem::rtt::rtt_deploy_cycles(landed.rtt_entries().len());
        if let Err(e) = self.chips[id.chip].destroy_vnpu(id.vm) {
            // Unwind the landed copy so a failed source teardown leaves
            // the fleet exactly as it was.
            self.chips[to_chip]
                .destroy_vnpu(new_vm)
                .expect("freshly created vm tears down");
            return Err(e);
        }
        let cost = ReconfigCost::for_move(routing_cycles, rtt_cycles, data_move);
        self.mark_dirty(id.chip);
        self.mark_dirty(to_chip);
        Ok((
            ClusterVmId {
                chip: to_chip,
                vm: new_vm,
            },
            cost,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{Backfill, SmallestFirst};

    fn sim_chip() -> SocConfig {
        SocConfig::sim() // 6x6
    }

    fn small_chip() -> SocConfig {
        SocConfig {
            mesh_width: 4,
            mesh_height: 4,
            ..SocConfig::sim()
        }
    }

    fn two_chip_cluster() -> Cluster {
        Cluster::new(vec![sim_chip(), small_chip()])
    }

    #[test]
    fn first_fit_concentrates_on_chip_zero() {
        let mut cl = two_chip_cluster();
        for _ in 0..3 {
            cl.submit(VnpuRequest::mesh(2, 2));
        }
        let events = cl.process_admissions();
        assert_eq!(events.len(), 3);
        for e in &events {
            match e.outcome {
                ClusterAdmissionOutcome::Admitted(cvm) => assert_eq!(cvm.chip, 0),
                ref o => panic!("expected admission, got {o:?}"),
            }
        }
        assert_eq!(cl.chip(0).vnpu_count(), 3);
        assert_eq!(cl.chip(1).vnpu_count(), 0);
    }

    #[test]
    fn least_loaded_spreads_across_chips() {
        // Two identical chips: least-loaded alternates between them
        // (every placement makes the other chip the emptier one).
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        cl.set_placement(Arc::new(LeastLoaded));
        for _ in 0..4 {
            cl.submit(VnpuRequest::mesh(2, 2));
        }
        let events = cl.process_admissions();
        assert_eq!(events.len(), 4);
        assert_eq!(cl.chip(0).vnpu_count(), 2);
        assert_eq!(
            cl.chip(1).vnpu_count(),
            2,
            "least-loaded must alternate between equal chips"
        );
    }

    #[test]
    fn spillover_when_the_preferred_chip_is_full() {
        let mut cl = two_chip_cluster();
        cl.create_on(0, VnpuRequest::mesh(6, 6)).unwrap(); // fill chip 0
        cl.submit(VnpuRequest::mesh(3, 3));
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        match events[0].outcome {
            ClusterAdmissionOutcome::Admitted(cvm) => assert_eq!(cvm.chip, 1),
            ref o => panic!("expected spillover admission, got {o:?}"),
        }
    }

    #[test]
    fn fleet_impossible_requests_reject_immediately() {
        let mut cl = two_chip_cluster();
        let id = cl.submit(VnpuRequest::mesh(7, 7)); // 49 > 36 > 16
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, id);
        assert!(matches!(
            events[0].outcome,
            ClusterAdmissionOutcome::Rejected(_)
        ));
        // ...but a request that fits only the *larger* chip is not
        // terminal for the fleet.
        cl.submit(VnpuRequest::mesh(5, 5)); // 25 ≤ 36, > 16
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].outcome,
            ClusterAdmissionOutcome::Admitted(ClusterVmId { chip: 0, .. })
        ));
    }

    #[test]
    fn shared_cache_hits_for_identical_chip_models() {
        // Two identical chips: the second chip's first placement of a
        // popular shape reuses the first chip's cached mapping (same
        // phys_key, same free fingerprint).
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(cl.cache_stats().misses, 1);
        cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        let stats = cl.cache_stats();
        assert_eq!(stats.hits, 1, "identical chips share mapping work");
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn heterogeneous_chips_never_share_entries() {
        let mut cl = two_chip_cluster();
        let a = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        let b = cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(
            cl.cache_stats().hits,
            0,
            "different phys_keys must not alias"
        );
        assert_eq!(cl.cache_stats().misses, 2);
        // Both placements are valid on their own chips.
        for (id, cores) in [(a, 36u32), (b, 16u32)] {
            for n in cl.vnpu(id).unwrap().mapping().phys_nodes() {
                assert!(n.0 < cores, "{id}: node {n} outside its chip");
            }
        }
    }

    #[test]
    fn cluster_destroy_and_leak_accounting() {
        let mut cl = two_chip_cluster();
        let a = cl.create_on(0, VnpuRequest::mesh(3, 3)).unwrap();
        let b = cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(cl.live_count(), 2);
        cl.destroy(a).unwrap();
        cl.destroy(b).unwrap();
        assert_eq!(cl.live_count(), 0);
        assert_eq!(cl.free_cores(), cl.total_cores());
        assert!(cl.destroy(a).is_err(), "double destroy is an error");
    }

    #[test]
    fn cluster_policies_order_across_chips() {
        let mut cl = two_chip_cluster();
        // Fill both chips except small islands.
        cl.create_on(0, VnpuRequest::mesh(6, 5)).unwrap(); // 6 free on chip 0
        cl.create_on(1, VnpuRequest::mesh(4, 3)).unwrap(); // 4 free on chip 1
        let big = cl.submit(VnpuRequest::mesh(3, 3)); // fits nothing now
        let small = cl.submit(VnpuRequest::mesh(1, 2));
        // FIFO blocks behind the big request.
        assert!(cl.process_admissions().is_empty());
        cl.set_admission_policy(Arc::new(SmallestFirst));
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, small);
        // Backfill also gets the small one past the big head.
        let small2 = cl.submit(VnpuRequest::mesh(1, 2));
        cl.set_admission_policy(Arc::new(Backfill));
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, small2);
        let _ = big;
    }

    #[test]
    fn best_fit_prefers_the_tightest_window() {
        // Chip 0 idle (36-core window), chip 1 idle (16-core window): a
        // 2x2 request should land on chip 1 under best-fit (tightest
        // window that still fits), not chip 0.
        let mut cl = two_chip_cluster();
        cl.set_placement(Arc::new(BestFitFragmentation));
        cl.submit(VnpuRequest::mesh(2, 2));
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        match events[0].outcome {
            ClusterAdmissionOutcome::Admitted(cvm) => assert_eq!(cvm.chip, 1),
            ref o => panic!("expected admission, got {o:?}"),
        }
    }

    #[test]
    fn temporal_sharing_requests_reach_full_chips() {
        // Regression: ChipSnapshot::fits used to require free cores even
        // for temporal-sharing requests, so a fully loaded fleet made
        // them unplaceable through the cluster path although the
        // single-chip hypervisor admits them by widening onto busy cores.
        let mut cl = Cluster::new(vec![sim_chip()]);
        cl.create_on(0, VnpuRequest::mesh(6, 6)).unwrap(); // full chip
        cl.submit(VnpuRequest::mesh(2, 2).temporal_sharing(true));
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        assert!(
            matches!(
                events[0].outcome,
                ClusterAdmissionOutcome::Admitted(ClusterVmId { chip: 0, .. })
            ),
            "temporal sharing must place on busy cores: {:?}",
            events[0].outcome
        );
        // A strict request on the same full chip still cannot place.
        cl.submit(VnpuRequest::mesh(2, 2));
        assert!(cl.process_admissions().is_empty());
    }

    #[test]
    fn cross_chip_migration_moves_tenant_and_costs_data_movement() {
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        let a = cl
            .create_on(0, VnpuRequest::mesh(2, 2).mem_bytes(64 << 20))
            .unwrap();
        let (b, cost) = cl.migrate_to_chip(a, 1).unwrap();
        assert_eq!(b.chip, 1);
        assert!(cl.vnpu(a).is_err(), "the source copy is gone");
        assert_eq!(cl.vnpu(b).unwrap().core_count(), 4);
        assert_eq!(cl.chip(0).vnpu_count(), 0);
        assert_eq!(cl.chip(0).free_core_count(), 36);
        assert_eq!(cl.chip(1).vnpu_count(), 1);
        // The data-movement term (guest HBM + scratchpad state) dwarfs
        // the meta-table cycles for a cross-chip move.
        assert!(cost.data_move_bytes >= 64 << 20);
        assert!(cost.paused_cycles > (cost.routing_cycles + cost.rtt_cycles) * 100);
        cl.destroy(b).unwrap();
        assert_eq!(cl.free_cores(), cl.total_cores(), "no cores leak");
    }

    #[test]
    fn cross_chip_migration_is_transactional_on_failure() {
        let mut cl = two_chip_cluster();
        let a = cl.create_on(0, VnpuRequest::mesh(5, 5)).unwrap(); // 25 > 16
        assert!(cl.migrate_to_chip(a, 1).is_err(), "target cannot host it");
        assert!(cl.vnpu(a).is_ok(), "failed migration leaves the tenant");
        assert_eq!(cl.chip(1).vnpu_count(), 0, "no half-landed copy");
        assert!(matches!(
            cl.migrate_to_chip(a, 9),
            Err(VnpuError::UnknownChip { chip: 9, .. })
        ));
    }

    #[test]
    fn defrag_chip_opens_a_larger_window() {
        use crate::plan::{GreedyDefrag, ReconfigBudget};
        // Fill a 6x6 with four 3x3 quadrant tenants, then free the two
        // diagonal ones: two 9-core islands remain. Moving one surviving
        // quadrant into a freed one merges the free region into an
        // 18-core window.
        let mut cl = Cluster::new(vec![sim_chip()]);
        let mut vms = Vec::new();
        for _ in 0..4 {
            vms.push(cl.create_on(0, VnpuRequest::mesh(3, 3)).unwrap());
        }
        cl.destroy(vms[0]).unwrap();
        cl.destroy(vms[3]).unwrap();
        let before = cl.snapshot_of(0);
        assert_eq!(before.free_components, 2);
        assert_eq!(before.largest_free_component, 9);
        let receipt = cl
            .defrag_chip(
                0,
                &GreedyDefrag::default(),
                &ReconfigBudget::default(),
                &before.fragmentation_stats(),
            )
            .unwrap();
        assert!(receipt.migration_count() >= 1, "a window-opening move runs");
        let (_, cost) = receipt.migrated[0];
        assert!(cost.routing_cycles > 0);
        assert!(cost.data_move_bytes > 0);
        let after = cl.snapshot_of(0);
        assert_eq!(
            after.largest_free_component, 18,
            "the exact-match window re-opens"
        );
        // An exact 3x6 request now places where it previously could not.
        assert!(cl.create_on(0, VnpuRequest::mesh(3, 6)).is_ok());
    }

    #[test]
    fn cross_chip_migration_preserves_tenant_semantics() {
        // Regression: migrate_to_chip used to rebuild the request
        // without the temporal-sharing flag (and with the default
        // strategy), so a §7 over-provisioned tenant silently became a
        // dedicated-core tenant — and could not even land on a full
        // chip that its original semantics would share.
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        cl.create_on(1, VnpuRequest::mesh(6, 6)).unwrap(); // chip 1 full
        let a = cl
            .create_on(0, VnpuRequest::mesh(2, 2).temporal_sharing(true))
            .unwrap();
        let (b, _) = cl
            .migrate_to_chip(a, 1)
            .expect("temporal sharing must carry over and widen onto busy cores");
        let landed = cl.vnpu(b).unwrap();
        assert!(landed.wants_temporal_sharing(), "flag survives migration");
        assert_eq!(landed.core_count(), 4);
        assert_eq!(cl.chip(0).vnpu_count(), 0);
    }

    #[test]
    fn defrag_chip_absorbs_unplannable_proposals() {
        use crate::admission::FragmentationStats;
        use crate::plan::{Defragmenter, MigrationTarget, ReconfigBudget};
        use vnpu_topo::cache::MappingCache;
        use vnpu_topo::mapping::Strategy;

        // A policy that always proposes moving a tenant that does not
        // exist: advisory proposals must skip the pass, not error it.
        #[derive(Debug)]
        struct Bogus;
        impl Defragmenter for Bogus {
            fn name(&self) -> &'static str {
                "bogus"
            }
            fn plan(
                &self,
                _hv: &Hypervisor,
                _stats: &FragmentationStats,
                _budget: &ReconfigBudget,
                _cache: &mut MappingCache,
            ) -> Vec<PlanOp> {
                vec![PlanOp::Migrate {
                    vm: crate::ids::VmId(9_999),
                    to: MigrationTarget::Remap(Strategy::similar_topology().threads(1)),
                }]
            }
        }
        let mut cl = Cluster::new(vec![sim_chip()]);
        cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        let stats = cl.snapshot_of(0).fragmentation_stats();
        let receipt = cl
            .defrag_chip(0, &Bogus, &ReconfigBudget::default(), &stats)
            .expect("unplannable advisory proposals skip the pass");
        assert_eq!(receipt.migration_count(), 0);
        assert_eq!(cl.chip(0).vnpu_count(), 1, "nothing was touched");
    }

    #[test]
    fn cross_chip_migration_rolls_back_on_destroy_failure() {
        // Regression: the destination create commits first
        // (create-before-destroy); if the source-chip destroy then fails,
        // the landed copy must be unwound — a tenant can never exist on
        // two chips. Inject the failure by administratively stripping one
        // of the tenant's cores, which makes destroy_vnpu refuse with
        // OverRelease.
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        let a = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        let core = cl.vnpu(a).unwrap().mapping().phys_nodes()[0].0;
        cl.chip_mut(0).release_cores(&[core]).unwrap(); // misuse
        let err = cl.migrate_to_chip(a, 1);
        assert!(
            matches!(err, Err(VnpuError::OverRelease { .. })),
            "the failed source teardown surfaces: {err:?}"
        );
        assert!(cl.vnpu(a).is_ok(), "the tenant still lives on the source");
        assert_eq!(cl.chip(0).vnpu_count(), 1);
        assert_eq!(
            cl.chip(1).vnpu_count(),
            0,
            "the landed copy must be rolled back — never two live copies"
        );
        assert_eq!(
            cl.chip(1).free_core_count(),
            36,
            "the rollback releases every destination core"
        );
        assert_eq!(
            cl.chip(1).hbm_free_bytes(),
            cl.chip(1).hbm_total_bytes(),
            "the rollback releases the destination HBM"
        );
        // Restore the stolen reference; the migration then succeeds.
        cl.chip_mut(0).reserve_cores(&[core]).unwrap();
        let (b, _) = cl.migrate_to_chip(a, 1).unwrap();
        assert_eq!(b.chip, 1);
        assert_eq!(cl.chip(0).vnpu_count(), 0);
    }

    #[test]
    fn drain_lifecycle_masks_and_restores_schedulability() {
        use crate::drain::{CheapestFirstDrain, ChipSchedState};
        use crate::plan::ReconfigBudget;
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        for _ in 0..3 {
            cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        }
        assert_eq!(cl.drain_state(0), Ok(ChipSchedState::Schedulable));
        cl.begin_drain(0).unwrap();
        assert_eq!(cl.drain_state(0), Ok(ChipSchedState::Draining));
        assert!(
            matches!(cl.begin_drain(0), Err(VnpuError::Drain { chip: 0, .. })),
            "double begin is a lifecycle error"
        );
        // The mask: snapshots say unschedulable, direct placement and
        // inbound migration refuse, admission lands elsewhere.
        assert!(!cl.snapshot_of(0).schedulable);
        assert!(!cl.snapshot_of(0).fits(&PendingView {
            id: RequestId(0),
            cores: 1,
            memory_bytes: 1,
            temporal_sharing: false,
            attempts: 0,
            last_failure_at_free_event: None,
        }));
        assert!(matches!(
            cl.create_on(0, VnpuRequest::mesh(1, 1)),
            Err(VnpuError::Drain { chip: 0, .. })
        ));
        let elsewhere = cl.create_on(1, VnpuRequest::mesh(1, 1)).unwrap();
        assert!(matches!(
            cl.migrate_to_chip(elsewhere, 0),
            Err(VnpuError::Drain { chip: 0, .. })
        ));
        cl.submit(VnpuRequest::mesh(2, 2));
        let events = cl.process_admissions();
        assert!(matches!(
            events[0].outcome,
            ClusterAdmissionOutcome::Admitted(ClusterVmId { chip: 1, .. })
        ));
        // Budgeted evacuation: two moves per step empties three tenants
        // in two steps.
        let budget = ReconfigBudget {
            max_migrations: 2,
            ..ReconfigBudget::default()
        };
        let step1 = cl.drain_step(0, &CheapestFirstDrain, &budget).unwrap();
        assert_eq!(step1.moved.len(), 2, "budget caps the per-epoch moves");
        assert_eq!(step1.remaining, 1);
        assert!(
            step1.total.data_move_bytes > 0,
            "evacuations pay data movement"
        );
        assert!(
            matches!(cl.complete_drain(0), Err(VnpuError::Drain { chip: 0, .. })),
            "complete_drain refuses while residents remain"
        );
        let step2 = cl.drain_step(0, &CheapestFirstDrain, &budget).unwrap();
        assert!(step2.is_evacuated());
        assert_eq!(cl.chip(0).vnpu_count(), 0);
        assert_eq!(cl.chip(1).vnpu_count(), 5, "every tenant landed on chip 1");
        cl.complete_drain(0).unwrap();
        assert_eq!(cl.drain_state(0), Ok(ChipSchedState::Drained));
        assert!(
            cl.drain_step(0, &CheapestFirstDrain, &budget).is_err(),
            "drained chips no longer step"
        );
        // Hand-back restores schedulability byte-for-byte: the chip is
        // empty and nominated again.
        cl.undrain(0).unwrap();
        assert_eq!(cl.drain_state(0), Ok(ChipSchedState::Schedulable));
        let fresh = Cluster::new(vec![sim_chip(), sim_chip()]);
        assert_eq!(
            cl.snapshot_of(0),
            fresh.snapshot_of(0),
            "an evacuated, undrained chip looks exactly like a fresh one"
        );
        cl.submit(VnpuRequest::mesh(6, 6));
        let events = cl.process_admissions();
        assert!(matches!(
            events[0].outcome,
            ClusterAdmissionOutcome::Admitted(ClusterVmId { chip: 0, .. })
        ));
        assert!(
            matches!(cl.undrain(0), Err(VnpuError::Drain { chip: 0, .. })),
            "undraining a schedulable chip is a lifecycle error"
        );
    }

    #[test]
    fn drain_step_skips_unplaceable_tenants() {
        use crate::drain::CheapestFirstDrain;
        use crate::plan::ReconfigBudget;
        // Chip 0 hosts a 5x5 tenant no other chip can take (chip 1 is
        // 4x4): the step moves what it can and reports the residual.
        let mut cl = two_chip_cluster();
        cl.create_on(0, VnpuRequest::mesh(5, 5)).unwrap();
        cl.create_on(0, VnpuRequest::mesh(1, 2)).unwrap();
        cl.begin_drain(0).unwrap();
        let step = cl
            .drain_step(0, &CheapestFirstDrain, &ReconfigBudget::default())
            .unwrap();
        assert_eq!(step.moved.len(), 1, "only the small tenant fits chip 1");
        assert_eq!(step.remaining, 1, "the 5x5 tenant stays resident");
        assert!(!step.is_evacuated());
        assert_eq!(cl.chip(1).vnpu_count(), 1);
    }

    #[test]
    fn per_chip_generation_bump_only_invalidates_that_chip() {
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        let a = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        cl.destroy(a).unwrap();
        let b = cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        cl.destroy(b).unwrap();
        assert_eq!(cl.cache_stats().hits, 1);
        // Reconfig chip 0: its next identical request misses; chip 1's
        // still hits.
        cl.chip_mut(0).bump_topology_generation();
        cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(cl.cache_stats().misses, 2, "chip 0 re-maps after reconfig");
        cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(cl.cache_stats().hits, 2, "chip 1's entry survives");
    }
}
