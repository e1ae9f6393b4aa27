//! The 2D-mesh network-on-chip model.
//!
//! Packets are moved at routing-packet granularity (2048 B by default,
//! matching the paper's Table 3 unit): each packet store-and-forwards
//! across its path, holding every link for its serialization time
//! (`bytes / link_bytes_per_cycle`) plus a per-hop router latency. Links
//! are `busy_until` resources, so two flows crossing the same link contend
//! and the loser's wait shows up in [`Noc::contention_cycles`] — this is
//! the *NoC interference* phenomenon of §4.1.2.
//!
//! Routing is pluggable through [`NocRouter`]: the bare-metal default
//! ([`DorRouter`]) applies dimension-order routing on physical IDs; the
//! `vnpu` crate supplies a vRouter implementation that first translates
//! virtual core IDs through the routing table and optionally walks
//! direction-override paths confined to the virtual topology.

use crate::config::SocConfig;
use crate::{Result, SimError};
use std::collections::{BTreeSet, HashMap};
use vnpu_topo::{route, MeshShape, Topology};

/// Resolves program-level destination core IDs and supplies NoC paths.
///
/// Implementations must be deterministic; `resolve` may mutate internal
/// state (e.g. a last-destination cache, as in the paper: "if consecutive
/// instructions are directed to the same NPU core, the subsequent
/// instructions do not need to query the routing table again").
pub trait NocRouter: Send {
    /// Translates a program-level destination to a physical core ID,
    /// returning the lookup cost in cycles.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RouteFault`] when the destination is not mapped
    /// for this core's tenant.
    fn resolve(&mut self, dst_program: u32) -> Result<(u32, u64)>;

    /// Physical path (node sequence including both endpoints) between two
    /// physical cores.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RouteFault`] when no path exists.
    fn path(&self, src_phys: u32, dst_phys: u32) -> Result<Vec<u32>>;

    /// Extra cycles charged per packet (destination-rewrite muxing in the
    /// send/receive engine; 0 for bare-metal).
    fn per_packet_overhead(&self) -> u64 {
        0
    }

    /// Mechanism name for reports.
    fn name(&self) -> String;
}

/// Bare-metal routing: program IDs *are* physical IDs; dimension-order
/// (X-then-Y) paths; zero lookup cost. Keeps only the mesh shape, so
/// binding a thread builds no topology.
#[derive(Debug, Clone)]
pub struct DorRouter {
    mesh: MeshShape,
}

impl DorRouter {
    /// Creates a DOR router over the machine's mesh.
    pub fn new(cfg: &SocConfig) -> Self {
        DorRouter {
            mesh: MeshShape {
                width: cfg.mesh_width,
                height: cfg.mesh_height,
            },
        }
    }
}

impl NocRouter for DorRouter {
    fn resolve(&mut self, dst_program: u32) -> Result<(u32, u64)> {
        if (dst_program as usize) < self.mesh.len() {
            Ok((dst_program, 0))
        } else {
            Err(SimError::RouteFault {
                core: u32::MAX,
                dst: dst_program,
            })
        }
    }

    fn path(&self, src_phys: u32, dst_phys: u32) -> Result<Vec<u32>> {
        route::mesh_dor_path(self.mesh, src_phys, dst_phys).ok_or(SimError::RouteFault {
            core: src_phys,
            dst: dst_phys,
        })
    }

    fn name(&self) -> String {
        "dor".to_owned()
    }
}

/// One directed mesh link's occupancy state.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    busy_until: u64,
    bytes_carried: u64,
}

/// The mesh NoC: directed links with busy-until contention tracking.
#[derive(Debug, Clone)]
pub struct Noc {
    links: HashMap<(u32, u32), Link>,
    link_bw: u64,
    router_latency: u64,
    contention_cycles: u64,
    packets_sent: u64,
    /// Faulted directed links (injected hardware failures). A packet
    /// routed across one errors with [`SimError::LinkFaulted`]. Faults
    /// model hardware, so — like the link graph — they survive
    /// [`Noc::reset_epoch`] until explicitly repaired.
    faulted: BTreeSet<(u32, u32)>,
    /// Extra per-hop router cycles charged while the chip runs in
    /// degraded mode (active faults anywhere on the chip force the
    /// routers onto slower fault-tolerant arbitration). 0 = healthy.
    degraded_penalty: u64,
}

/// Timing of one packet's traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketTiming {
    /// When the packet finished serializing onto the first link (the
    /// sender's injection port is free again).
    pub injected_at: u64,
    /// When the packet fully arrived at the destination.
    pub arrived_at: u64,
}

impl Noc {
    /// Creates the NoC for a mesh configuration.
    pub fn new(cfg: &SocConfig) -> Self {
        let topo = Topology::mesh2d(cfg.mesh_width, cfg.mesh_height);
        let mut links = HashMap::new();
        for (a, b) in topo.edges() {
            links.insert((a.0, b.0), Link::default());
            links.insert((b.0, a.0), Link::default());
        }
        Noc {
            links,
            link_bw: cfg.link_bytes_per_cycle.max(1),
            router_latency: cfg.router_latency,
            contention_cycles: 0,
            packets_sent: 0,
            faulted: BTreeSet::new(),
            degraded_penalty: 0,
        }
    }

    /// Sends one packet of `bytes` along `path` starting no earlier than
    /// `depart`. Returns the injection-done and arrival times.
    ///
    /// A single-node path (self-send) arrives after one router latency.
    /// While the chip runs degraded (see [`Noc::set_degraded_penalty`]),
    /// every hop pays the extra penalty on top of the router latency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RouteFault`] if the path uses a non-existent
    /// link, or [`SimError::LinkFaulted`] if it crosses a faulted one.
    pub fn send_packet(&mut self, path: &[u32], bytes: u64, depart: u64) -> Result<PacketTiming> {
        self.packets_sent += 1;
        let hop_latency = self.router_latency + self.degraded_penalty;
        if path.len() < 2 {
            return Ok(PacketTiming {
                injected_at: depart,
                arrived_at: depart + hop_latency,
            });
        }
        let ser = bytes.div_ceil(self.link_bw);
        let mut t = depart;
        let mut injected_at = None;
        for w in path.windows(2) {
            if self.faulted.contains(&(w[0], w[1])) {
                return Err(SimError::LinkFaulted {
                    src: w[0],
                    dst: w[1],
                });
            }
            let link = self
                .links
                .get_mut(&(w[0], w[1]))
                .ok_or(SimError::RouteFault {
                    core: w[0],
                    dst: w[1],
                })?;
            let start = t.max(link.busy_until);
            self.contention_cycles += start - t;
            link.busy_until = start + ser;
            link.bytes_carried += bytes;
            if injected_at.is_none() {
                injected_at = Some(start + ser);
            }
            t = start + hop_latency + ser;
        }
        Ok(PacketTiming {
            injected_at: injected_at.expect("path has at least one link"),
            arrived_at: t,
        })
    }

    /// Rewinds the NoC to an idle state for a fresh machine epoch: every
    /// link's `busy_until` clock and the per-epoch counters are zeroed,
    /// while the link graph itself is reused (never rebuilt).
    pub fn reset_epoch(&mut self) {
        for link in self.links.values_mut() {
            *link = Link::default();
        }
        self.contention_cycles = 0;
        self.packets_sent = 0;
    }

    /// Total cycles packets spent waiting for busy links (the NoC
    /// interference metric).
    pub fn contention_cycles(&self) -> u64 {
        self.contention_cycles
    }

    /// Total packets injected.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Marks (or repairs) the *undirected* link between `a` and `b` —
    /// both directed entries change together, since a physical fault
    /// takes out the whole wire. Returns whether the state changed
    /// (`false` = the link was already in the requested state).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RouteFault`] when `a` and `b` are not adjacent
    /// in the mesh (there is no such link to fault).
    pub fn set_link_faulted(&mut self, a: u32, b: u32, faulted: bool) -> Result<bool> {
        if !self.links.contains_key(&(a, b)) || !self.links.contains_key(&(b, a)) {
            return Err(SimError::RouteFault { core: a, dst: b });
        }
        let changed = if faulted {
            self.faulted.insert((a, b)) | self.faulted.insert((b, a))
        } else {
            self.faulted.remove(&(a, b)) | self.faulted.remove(&(b, a))
        };
        Ok(changed)
    }

    /// Whether the directed link `src → dst` is currently faulted.
    pub fn link_faulted(&self, src: u32, dst: u32) -> bool {
        self.faulted.contains(&(src, dst))
    }

    /// Currently faulted directed links, in sorted order.
    pub fn faulted_links(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.faulted.iter().copied()
    }

    /// Number of faulted directed links.
    pub fn faulted_link_count(&self) -> usize {
        self.faulted.len()
    }

    /// Sets the degraded-mode per-hop penalty (0 restores full speed).
    pub fn set_degraded_penalty(&mut self, cycles: u64) {
        self.degraded_penalty = cycles;
    }

    /// The current degraded-mode per-hop penalty.
    pub fn degraded_penalty(&self) -> u64 {
        self.degraded_penalty
    }

    /// Bytes carried per directed link, for utilization heat maps.
    pub fn link_loads(&self) -> Vec<((u32, u32), u64)> {
        let mut v: Vec<_> = self
            .links
            .iter()
            .map(|(&k, l)| (k, l.bytes_carried))
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SocConfig {
        SocConfig::fpga() // 4x2 mesh, 16 B/cyc links, router latency 3
    }

    #[test]
    fn dor_router_identity_resolution() {
        let mut r = DorRouter::new(&cfg());
        assert_eq!(r.resolve(3).unwrap(), (3, 0));
        assert!(r.resolve(99).is_err());
    }

    #[test]
    fn dor_router_paths_match_dor_path() {
        let c = SocConfig {
            mesh_width: 4,
            mesh_height: 3,
            ..cfg()
        };
        let topo = Topology::mesh2d(4, 3);
        let r = DorRouter::new(&c);
        for src in 0..12 {
            for dst in 0..12 {
                let want: Vec<u32> =
                    route::dor_path(&topo, vnpu_topo::NodeId(src), vnpu_topo::NodeId(dst))
                        .unwrap()
                        .into_iter()
                        .map(|n| n.0)
                        .collect();
                assert_eq!(r.path(src, dst).unwrap(), want, "{src} -> {dst}");
            }
        }
        assert!(r.path(0, 12).is_err());
    }

    #[test]
    fn single_hop_packet_timing() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        // 2048 B over a 16 B/cyc link: 128 cycles serialization + 3 router.
        let t = noc.send_packet(&[0, 1], 2048, 0).unwrap();
        assert_eq!(t.injected_at, 128);
        assert_eq!(t.arrived_at, 131);
    }

    #[test]
    fn multi_hop_accumulates_router_latency() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        // 0 -> 1 -> 2 -> 3 on the 4x2 mesh: 3 hops.
        let t = noc.send_packet(&[0, 1, 2, 3], 2048, 0).unwrap();
        assert_eq!(t.arrived_at, 3 * (128 + 3));
    }

    #[test]
    fn self_send_is_cheap() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        let t = noc.send_packet(&[5], 2048, 10).unwrap();
        assert_eq!(t.arrived_at, 10 + c.router_latency);
    }

    #[test]
    fn contention_serializes_same_link() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        let a = noc.send_packet(&[0, 1], 2048, 0).unwrap();
        let b = noc.send_packet(&[0, 1], 2048, 0).unwrap();
        assert_eq!(b.injected_at, a.injected_at + 128);
        assert_eq!(noc.contention_cycles(), 128);
    }

    #[test]
    fn disjoint_links_do_not_contend() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        let a = noc.send_packet(&[0, 1], 2048, 0).unwrap();
        let b = noc.send_packet(&[2, 3], 2048, 0).unwrap();
        assert_eq!(a.arrived_at, b.arrived_at);
        assert_eq!(noc.contention_cycles(), 0);
    }

    #[test]
    fn reverse_direction_is_separate_link() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        noc.send_packet(&[0, 1], 2048, 0).unwrap();
        let b = noc.send_packet(&[1, 0], 2048, 0).unwrap();
        assert_eq!(b.injected_at, 128);
        assert_eq!(noc.contention_cycles(), 0);
    }

    #[test]
    fn crossing_flows_contend_on_shared_segment() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        // Flow A: 0->1->2; Flow B: 4->... wait, use 1->2 shared:
        // A: 0->1->2, B: 5->1? 5 is below 1 on 4x2 mesh (nodes 0..3 top row,
        // 4..7 bottom). B: 5->1->2 shares link (1,2).
        let a = noc.send_packet(&[0, 1, 2], 2048, 0).unwrap();
        let b = noc.send_packet(&[5, 1, 2], 2048, 0).unwrap();
        assert!(noc.contention_cycles() > 0);
        assert!(b.arrived_at > a.arrived_at || a.arrived_at > 2 * 131);
    }

    #[test]
    fn invalid_link_rejected() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        // 0 and 2 are not adjacent on the 4-wide mesh.
        assert!(noc.send_packet(&[0, 2], 64, 0).is_err());
    }

    #[test]
    fn table3_shape_packet_scaling() {
        // The Table 3 calibration: send N packets back-to-back over one hop;
        // marginal cost per packet ≈ serialization (128 cyc at 2048 B,
        // 16 B/cyc). Matches the paper's ~141 cyc/packet with overheads.
        let c = cfg();
        let mut noc = Noc::new(&c);
        let mut depart = 0;
        let mut last_arrival = 0;
        for _ in 0..10 {
            let t = noc.send_packet(&[0, 1], 2048, depart).unwrap();
            depart = t.injected_at;
            last_arrival = t.arrived_at;
        }
        assert_eq!(last_arrival, 10 * 128 + 3);
    }

    #[test]
    fn faulted_link_rejects_packets_and_survives_epoch_reset() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        assert!(noc.set_link_faulted(0, 1, true).unwrap());
        assert!(!noc.set_link_faulted(0, 1, true).unwrap(), "idempotent");
        assert!(noc.link_faulted(0, 1) && noc.link_faulted(1, 0));
        assert!(matches!(
            noc.send_packet(&[0, 1], 2048, 0),
            Err(SimError::LinkFaulted { src: 0, dst: 1 })
        ));
        // Epoch resets rewind clocks, not hardware state.
        noc.reset_epoch();
        assert!(noc.link_faulted(0, 1));
        assert_eq!(noc.faulted_link_count(), 2);
        assert!(noc.set_link_faulted(0, 1, false).unwrap());
        assert!(noc.send_packet(&[0, 1], 2048, 0).is_ok());
        // Non-adjacent pairs cannot be faulted.
        assert!(noc.set_link_faulted(0, 2, true).is_err());
    }

    #[test]
    fn degraded_penalty_slows_every_hop() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        noc.set_degraded_penalty(5);
        assert_eq!(noc.degraded_penalty(), 5);
        let t = noc.send_packet(&[0, 1, 2], 2048, 0).unwrap();
        assert_eq!(t.arrived_at, 2 * (128 + 3 + 5));
        noc.set_degraded_penalty(0);
        noc.reset_epoch();
        let t = noc.send_packet(&[0, 1, 2], 2048, 0).unwrap();
        assert_eq!(t.arrived_at, 2 * (128 + 3));
    }

    #[test]
    fn link_loads_accumulate() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        noc.send_packet(&[0, 1], 2048, 0).unwrap();
        noc.send_packet(&[0, 1], 2048, 0).unwrap();
        let loads = noc.link_loads();
        let l01 = loads.iter().find(|(k, _)| *k == (0, 1)).unwrap().1;
        assert_eq!(l01, 4096);
        assert_eq!(noc.packets_sent(), 2);
    }
}
