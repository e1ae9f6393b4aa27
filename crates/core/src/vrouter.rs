//! The vRouter: NPU instruction-router and NoC-router virtualization
//! (§4.1).
//!
//! * [`InstRouter`] models the controller-side redirection of NPU
//!   instructions from virtual to physical cores (Figure 4) — used by the
//!   Figure 11/12 micro-benchmarks and charged once per program dispatch.
//! * [`VRouterNoc`] implements [`vnpu_sim::noc::NocRouter`]: the per-core
//!   send/receive engine extension that rewrites destination core IDs
//!   through the routing table and, when *NoC isolation* is requested,
//!   walks direction-override paths confined to the virtual topology
//!   (Figure 5) instead of default dimension-order routing.

use crate::ids::{PhysCoreId, VirtCoreId};
use crate::routing_table::{RoutingTable, RT_LOOKUP_CYCLES};
use std::collections::HashMap;
use std::sync::Arc;
use vnpu_sim::noc::NocRouter;
use vnpu_sim::{Result as SimResult, SimError};
use vnpu_topo::{route, NodeId, Topology};

/// Controller-side instruction router.
#[derive(Debug, Clone)]
pub struct InstRouter {
    table: RoutingTable,
    lookups: u64,
    cached: Option<(VirtCoreId, PhysCoreId)>,
}

impl InstRouter {
    /// Wraps a routing table.
    pub fn new(table: RoutingTable) -> Self {
        InstRouter {
            table,
            lookups: 0,
            cached: None,
        }
    }

    /// Redirects an instruction addressed to virtual core `v`, returning
    /// the physical core and the lookup cost in cycles (0 when the
    /// translation is cached from the previous instruction — §6.2.1: "if
    /// consecutive instructions are directed to the same NPU core, the
    /// subsequent instructions do not need to query the routing table
    /// again").
    pub fn redirect(&mut self, v: VirtCoreId) -> Option<(PhysCoreId, u64)> {
        if let Some((cv, cp)) = self.cached {
            if cv == v {
                return Some((cp, 0));
            }
        }
        let p = self.table.lookup(v)?;
        self.lookups += 1;
        self.cached = Some((v, p));
        Some((p, RT_LOOKUP_CYCLES))
    }

    /// Number of real (uncached) table lookups performed.
    pub fn lookup_count(&self) -> u64 {
        self.lookups
    }

    /// The underlying table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }
}

/// How the NoC vRouter picks paths between the virtual NPU's cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Default dimension-order routing on the physical mesh. Packets may
    /// cross cores of other virtual NPUs (*NoC interference* possible).
    Dor,
    /// Direction-override routing confined to the virtual NPU's allocated
    /// cores (paper strategy 2: "predefining the routing direction inside
    /// the routing table"). Falls back to DOR when no confined path exists
    /// (fragmented allocations).
    Confined,
}

/// Per-core NoC router for one virtual NPU.
///
/// One instance exists per bound virtual core, and all of them share the
/// chip's physical topology through one [`Arc`] (binding copies no
/// graph). Path lookups are cached (the hypervisor precomputes directions
/// into the core's meta-zone, so steady-state routing is table-driven).
pub struct VRouterNoc {
    topo: Arc<Topology>,
    v2p: Vec<u32>,
    policy: RoutePolicy,
    allowed: Vec<NodeId>,
    cached_dst: Option<u32>,
    path_cache: HashMap<(u32, u32), Vec<u32>>,
    direction_entries: u64,
    fallback_paths: u64,
}

impl std::fmt::Debug for VRouterNoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VRouterNoc")
            .field("cores", &self.v2p.len())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl VRouterNoc {
    /// Creates a NoC vRouter for a virtual NPU whose virtual core `i` is
    /// backed by physical core `v2p[i]` on the given physical mesh
    /// (either owned or shared with the other cores' routers).
    pub fn new(phys_topo: impl Into<Arc<Topology>>, v2p: Vec<u32>, policy: RoutePolicy) -> Self {
        let allowed = v2p.iter().map(|&p| NodeId(p)).collect();
        VRouterNoc {
            topo: phys_topo.into(),
            v2p,
            policy,
            allowed,
            cached_dst: None,
            path_cache: HashMap::new(),
            direction_entries: 0,
            fallback_paths: 0,
        }
    }

    /// Number of per-node direction entries this router has materialized
    /// (meta-zone storage accounting for [`crate::hwcost`]).
    pub fn direction_entries(&self) -> u64 {
        self.direction_entries
    }

    /// Paths that fell back to DOR because no confined route existed.
    pub fn fallback_paths(&self) -> u64 {
        self.fallback_paths
    }

    /// The route policy in force.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }
}

impl NocRouter for VRouterNoc {
    fn resolve(&mut self, dst_program: u32) -> SimResult<(u32, u64)> {
        let Some(&p) = self.v2p.get(dst_program as usize) else {
            return Err(SimError::RouteFault {
                core: u32::MAX,
                dst: dst_program,
            });
        };
        // Destination-rewrite cache: repeated sends to the same virtual
        // core skip the routing-table read.
        if self.cached_dst == Some(dst_program) {
            return Ok((p, 0));
        }
        self.cached_dst = Some(dst_program);
        Ok((p, RT_LOOKUP_CYCLES))
    }

    fn path(&self, src_phys: u32, dst_phys: u32) -> SimResult<Vec<u32>> {
        if let Some(p) = self.path_cache.get(&(src_phys, dst_phys)) {
            return Ok(p.clone());
        }
        compute_path(&self.topo, &self.allowed, self.policy, src_phys, dst_phys).map(|(p, _)| p)
    }

    fn per_packet_overhead(&self) -> u64 {
        1 // destination-rewrite mux in the send/receive engine
    }

    fn name(&self) -> String {
        match self.policy {
            RoutePolicy::Dor => "vrouter-dor".to_owned(),
            RoutePolicy::Confined => "vrouter-confined".to_owned(),
        }
    }
}

impl VRouterNoc {
    /// Precomputes and caches all pairwise paths among the virtual NPU's
    /// cores (what the hypervisor deploys into per-core meta-zones).
    /// Returns the total number of direction entries installed.
    pub fn precompute_paths(&mut self) -> u64 {
        let cores = self.v2p.clone();
        for &a in &cores {
            for &b in &cores {
                if a == b {
                    continue;
                }
                if let Ok((path, fallback)) =
                    compute_path(&self.topo, &self.allowed, self.policy, a, b)
                {
                    if self.policy == RoutePolicy::Confined && !fallback {
                        // One direction entry per relay node (minus source).
                        self.direction_entries += path.len().saturating_sub(1) as u64;
                    }
                    if fallback {
                        self.fallback_paths += 1;
                    }
                    self.path_cache.insert((a, b), path);
                }
            }
        }
        self.direction_entries
    }
}

fn compute_path(
    topo: &Topology,
    allowed: &[NodeId],
    policy: RoutePolicy,
    src: u32,
    dst: u32,
) -> SimResult<(Vec<u32>, bool)> {
    let dor = || {
        topo.mesh_shape()
            .and_then(|mesh| route::mesh_dor_path(mesh, src, dst))
            .ok_or(SimError::RouteFault { core: src, dst })
    };
    match policy {
        RoutePolicy::Dor => dor().map(|p| (p, false)),
        RoutePolicy::Confined => {
            match route::confined_path(topo, allowed, NodeId(src), NodeId(dst)) {
                Ok(p) => Ok((p.into_iter().map(|n| n.0).collect(), false)),
                // Fragmented virtual NPU: fall back to DOR across foreign
                // cores (the §4.3 performance/utilization trade-off).
                Err(_) => dor().map(|p| (p, true)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VmId;
    use vnpu_topo::MeshShape;

    #[test]
    fn inst_router_caches_repeat_destinations() {
        let table = RoutingTable::mesh2d(
            VmId(1),
            PhysCoreId(0),
            MeshShape {
                width: 2,
                height: 2,
            },
            4,
        );
        let mut r = InstRouter::new(table);
        let (p1, c1) = r.redirect(VirtCoreId(3)).unwrap();
        assert_eq!(p1, PhysCoreId(5));
        assert_eq!(c1, RT_LOOKUP_CYCLES);
        let (_, c2) = r.redirect(VirtCoreId(3)).unwrap();
        assert_eq!(c2, 0, "repeat destination must hit the cache");
        let (_, c3) = r.redirect(VirtCoreId(0)).unwrap();
        assert_eq!(c3, RT_LOOKUP_CYCLES);
        assert_eq!(r.lookup_count(), 2);
        assert!(r.redirect(VirtCoreId(9)).is_none());
    }

    /// Figure 5's vNPU2: virtual cores on physical {3, 6, 7, 11} of a 4x3
    /// mesh; the route 11 -> 6 must avoid physical core 10.
    fn fig5_router(policy: RoutePolicy) -> VRouterNoc {
        let topo = Topology::mesh2d(4, 3);
        VRouterNoc::new(topo, vec![3, 6, 7, 11], policy)
    }

    #[test]
    fn confined_path_stays_inside_vnpu() {
        let r = fig5_router(RoutePolicy::Confined);
        let path = r.path(11, 6).unwrap();
        assert_eq!(path, vec![11, 7, 6]);
    }

    #[test]
    fn dor_path_crosses_foreign_core() {
        let r = fig5_router(RoutePolicy::Dor);
        let path = r.path(11, 6).unwrap();
        // DOR (X then Y): 11 is (3,2); 6 is (2,1): go west to (2,2)=10,
        // then north to 6 — crossing foreign core 10.
        assert_eq!(path, vec![11, 10, 6]);
    }

    #[test]
    fn dor_paths_match_dor_path_on_every_pair() {
        let topo = Topology::mesh2d(4, 3);
        let r = VRouterNoc::new(topo.clone(), (0..12).collect(), RoutePolicy::Dor);
        for src in 0..12 {
            for dst in 0..12 {
                let want: Vec<u32> = route::dor_path(&topo, NodeId(src), NodeId(dst))
                    .unwrap()
                    .into_iter()
                    .map(|n| n.0)
                    .collect();
                assert_eq!(r.path(src, dst).unwrap(), want, "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn routers_share_one_topology() {
        let topo = Arc::new(Topology::mesh2d(4, 3));
        let a = VRouterNoc::new(Arc::clone(&topo), vec![3, 6], RoutePolicy::Dor);
        let b = VRouterNoc::new(Arc::clone(&topo), vec![7, 11], RoutePolicy::Confined);
        assert_eq!(Arc::strong_count(&topo), 3);
        assert!(Arc::ptr_eq(&a.topo, &b.topo));
    }

    #[test]
    fn resolve_translates_and_caches() {
        let mut r = fig5_router(RoutePolicy::Confined);
        let (p, c) = r.resolve(2).unwrap();
        assert_eq!(p, 7);
        assert_eq!(c, RT_LOOKUP_CYCLES);
        let (_, c2) = r.resolve(2).unwrap();
        assert_eq!(c2, 0);
        let (_, c3) = r.resolve(0).unwrap();
        assert_eq!(c3, RT_LOOKUP_CYCLES);
        assert!(r.resolve(4).is_err());
    }

    #[test]
    fn precompute_counts_direction_entries() {
        let mut r = fig5_router(RoutePolicy::Confined);
        let entries = r.precompute_paths();
        assert!(entries > 0);
        assert_eq!(r.fallback_paths(), 0, "fig5 vNPU2 is connected");
        // Cached path still served.
        assert_eq!(r.path(11, 6).unwrap(), vec![11, 7, 6]);
    }

    #[test]
    fn fragmented_vnpu_falls_back_to_dor() {
        // Two disconnected islands: {0} and {15} on a 4x4 mesh.
        let topo = Topology::mesh2d(4, 4);
        let mut r = VRouterNoc::new(topo, vec![0, 15], RoutePolicy::Confined);
        r.precompute_paths();
        assert!(r.fallback_paths() > 0);
        let path = r.path(0, 15).unwrap();
        assert_eq!(path.len(), 7); // DOR path exists
    }

    #[test]
    fn per_packet_overhead_is_one_cycle() {
        let r = fig5_router(RoutePolicy::Dor);
        assert_eq!(r.per_packet_overhead(), 1);
    }
}
