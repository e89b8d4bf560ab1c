//! Core inventory and scheduling-domain hierarchy.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Index of a logical CPU (a hardware execution context).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Index of a NUMA node (memory locality domain).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub usize);

/// Levels of the scheduling-domain hierarchy, ordered from the most tightly
/// coupled (SMT siblings sharing a physical core) to the whole system.
///
/// This mirrors the hierarchy Linux constructs (`SMT` → `MC` → `CPU`/socket
/// → `NUMA`) and drives both the load balancer's per-level intervals and the
/// migration cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DomainLevel {
    /// Hardware threads of one physical core (share everything).
    Smt,
    /// Cores sharing a mid/last-level cache (e.g. L2 pairs on Tigerton,
    /// the per-socket L3 on Barcelona).
    Cache,
    /// Cores of one package/socket.
    Socket,
    /// Cores of one NUMA node.
    Numa,
    /// All cores in the machine.
    System,
}

impl DomainLevel {
    /// All levels, bottom-up.
    pub const ALL: [DomainLevel; 5] = [
        DomainLevel::Smt,
        DomainLevel::Cache,
        DomainLevel::Socket,
        DomainLevel::Numa,
        DomainLevel::System,
    ];
}

/// A scheduling domain: a set of cores sharing a resource at some level.
///
/// Core ids are assigned socket-major, then physical core, then SMT
/// context, so every domain [`Topology::build`] can produce is a contiguous
/// run of ids, and [`Topology::restrict`] keeps a prefix of them. A domain
/// is therefore stored as its level and the half-open id range
/// `first..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Domain {
    /// The sharing level this domain represents.
    pub level: DomainLevel,
    /// The lowest core id inside the domain.
    pub first: usize,
    /// One past the highest core id inside the domain.
    pub end: usize,
}

impl Domain {
    /// The cores inside the domain, in id order.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (self.first..self.end).map(CoreId)
    }

    /// Number of cores inside the domain.
    pub fn n_cores(&self) -> usize {
        self.end - self.first
    }
}

/// A core's scheduling-domain chain, bottom-up, held inline: at most one
/// domain per [`DomainLevel`], so building one never allocates. Derefs to
/// a slice of [`Domain`]s.
#[derive(Debug, Clone, Copy)]
pub struct DomainChain {
    domains: [Domain; DomainLevel::ALL.len()],
    len: usize,
}

impl DomainChain {
    /// Appends `dom` unless it is degenerate: a single core, or the same
    /// cores as the level below (as Linux degenerates such levels too).
    fn push_nondegenerate(&mut self, dom: Domain) {
        if dom.n_cores() <= 1 {
            return;
        }
        if let Some(last) = self.last() {
            if (last.first, last.end) == (dom.first, dom.end) {
                return;
            }
        }
        self.domains[self.len] = dom;
        self.len += 1;
    }
}

impl std::ops::Deref for DomainChain {
    type Target = [Domain];

    fn deref(&self) -> &[Domain] {
        &self.domains[..self.len]
    }
}

/// Static description of one logical CPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreInfo {
    /// The logical CPU id.
    pub id: CoreId,
    /// Socket (package) index.
    pub socket: usize,
    /// NUMA node the core's local memory controller belongs to.
    pub node: NodeId,
    /// Index of the shared-cache group this core belongs to.
    pub cache_group: usize,
    /// Index of the physical core, shared by SMT siblings. Equal to a unique
    /// value per logical CPU on non-SMT machines.
    pub smt_group: usize,
    /// Relative compute speed of this core (1.0 = nominal). Captures
    /// asymmetric systems and Turbo Boost-style overclocking.
    pub speed: f64,
}

impl CoreInfo {
    /// The core's group at `level`: two cores share a domain at `level`
    /// iff their keys are equal. [`Topology::build`] guarantees that the
    /// key is the core id divided by the level's group size, so every
    /// group is a contiguous id run.
    fn group_key(&self, level: DomainLevel) -> usize {
        match level {
            DomainLevel::Smt => self.smt_group,
            DomainLevel::Cache => self.cache_group,
            DomainLevel::Socket => self.socket,
            DomainLevel::Numa => self.node.0,
            DomainLevel::System => 0,
        }
    }
}

/// A complete machine description.
///
/// Construct via [`Topology::build`] or one of the presets in
/// [`crate::presets`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    cores: Vec<CoreInfo>,
    n_nodes: usize,
    n_sockets: usize,
    /// Bytes of shared cache at the `Cache` level (per group).
    cache_bytes: u64,
    /// Bytes of private per-core cache (L1+L2 where applicable).
    private_cache_bytes: u64,
    /// When both SMT siblings are busy, each runs at this fraction of the
    /// speed it would have alone (1.0 on non-SMT machines).
    smt_busy_factor: f64,
    /// Memory bandwidth per bandwidth domain, in "streams": how many fully
    /// memory-bound threads the domain sustains at full speed. A bandwidth
    /// domain is a NUMA node on NUMA machines (its own memory controller)
    /// and the whole machine on UMA ones (a shared front-side bus, as on
    /// Tigerton). `f64::INFINITY` disables contention.
    bw_streams: f64,
    /// Cores per group at each [`DomainLevel`] (indexed like
    /// [`DomainLevel::ALL`]): the group at a level holding core `i` is the
    /// id run starting at `i / len * len`, cut at the last core after a
    /// [`Topology::restrict`].
    group_len: [usize; DomainLevel::ALL.len()],
}

/// Builder-style specification for [`Topology::build`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Human-readable machine name (appears in labels and cache keys).
    pub name: String,
    /// Number of sockets (packages).
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Hardware threads per physical core (1 = no SMT).
    pub smt: usize,
    /// Physical cores per shared-cache group *within a socket*. A value
    /// equal to `cores_per_socket` means a socket-wide cache (Barcelona L3);
    /// 2 means pairwise sharing (Tigerton L2).
    pub cores_per_cache_group: usize,
    /// True if each socket is its own NUMA node; false for UMA machines.
    pub numa: bool,
    /// Bytes of shared cache per cache group.
    pub cache_bytes: u64,
    /// Bytes of private per-core cache (L1 + private L2).
    pub private_cache_bytes: u64,
    /// Per-sibling speed fraction when both SMT contexts are busy.
    pub smt_busy_factor: f64,
    /// Per-logical-CPU relative speeds; if shorter than the core count the
    /// last value (or 1.0 when empty) is repeated.
    pub speeds: Vec<f64>,
    /// Sustained memory streams per bandwidth domain (see
    /// [`Topology::bw_streams`]). Infinite by default.
    pub bw_streams: f64,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec {
            name: "generic".to_string(),
            sockets: 1,
            cores_per_socket: 4,
            smt: 1,
            cores_per_cache_group: 4,
            numa: false,
            cache_bytes: 4 << 20,
            private_cache_bytes: 64 << 10,
            smt_busy_factor: 1.0,
            speeds: Vec::new(),
            bw_streams: f64::INFINITY,
        }
    }
}

impl Topology {
    /// Builds the topology described by `spec`.
    ///
    /// Logical CPU numbering follows the common Linux convention: socket
    /// major, physical core next, SMT context last — so consecutive CPU ids
    /// within a socket are distinct physical cores.
    pub fn build(spec: &TopologySpec) -> Topology {
        assert!(spec.sockets > 0, "need at least one socket");
        assert!(spec.cores_per_socket > 0, "need at least one core");
        assert!(spec.smt > 0, "smt must be >= 1");
        assert!(
            spec.cores_per_cache_group > 0
                && spec
                    .cores_per_socket
                    .is_multiple_of(spec.cores_per_cache_group),
            "cache groups must evenly tile a socket"
        );
        let mut cores = Vec::with_capacity(spec.sockets * spec.cores_per_socket * spec.smt);
        let speed_at = |i: usize| -> f64 {
            if spec.speeds.is_empty() {
                1.0
            } else {
                *spec
                    .speeds
                    .get(i)
                    .unwrap_or_else(|| spec.speeds.last().unwrap())
            }
        };
        let groups_per_socket = spec.cores_per_socket / spec.cores_per_cache_group;
        // Enumeration order: for each socket, for each physical core, for
        // each SMT context, assign the next logical id. Physical cores of
        // one cache group are contiguous.
        let mut next_id = 0usize;
        for socket in 0..spec.sockets {
            for phys in 0..spec.cores_per_socket {
                let group_in_socket = phys / spec.cores_per_cache_group;
                let cache_group = socket * groups_per_socket + group_in_socket;
                let smt_group = socket * spec.cores_per_socket + phys;
                for _ctx in 0..spec.smt {
                    cores.push(CoreInfo {
                        id: CoreId(next_id),
                        socket,
                        node: if spec.numa { NodeId(socket) } else { NodeId(0) },
                        cache_group,
                        smt_group,
                        speed: speed_at(next_id),
                    });
                    next_id += 1;
                }
            }
        }
        // Every domain is a contiguous run of equally many ids, numbered in
        // id order: `domains_for` and the bandwidth-domain ranges rely on it.
        let group_len = DomainLevel::ALL.map(|level| {
            let len = cores.iter().take_while(|c| c.group_key(level) == 0).count();
            assert!(
                cores
                    .chunks(len.max(1))
                    .enumerate()
                    .all(|(g, run)| run.iter().all(|c| c.group_key(level) == g)),
                "{level:?} groups must be equal runs of consecutive core ids"
            );
            len
        });
        Topology {
            name: spec.name.clone(),
            cores,
            n_nodes: if spec.numa { spec.sockets } else { 1 },
            n_sockets: spec.sockets,
            cache_bytes: spec.cache_bytes,
            private_cache_bytes: spec.private_cache_bytes,
            smt_busy_factor: spec.smt_busy_factor,
            bw_streams: spec.bw_streams,
            group_len,
        }
    }

    /// Restriction of this machine to its first `n` logical CPUs — how the
    /// paper runs a 16-thread binary "on the number of cores indicated on
    /// the x-axis" (via `taskset`-style affinity masks). Domain structure is
    /// preserved; cores outside the subset simply do not exist.
    pub fn restrict(&self, n: usize) -> Topology {
        assert!(n > 0 && n <= self.cores.len());
        let cores: Vec<CoreInfo> = self.cores[..n].to_vec();
        let n_nodes = cores.iter().map(|c| c.node.0).max().unwrap() + 1;
        let n_sockets = cores.iter().map(|c| c.socket).max().unwrap() + 1;
        Topology {
            name: format!("{}[0..{}]", self.name, n),
            cores,
            n_nodes,
            n_sockets,
            cache_bytes: self.cache_bytes,
            private_cache_bytes: self.private_cache_bytes,
            smt_busy_factor: self.smt_busy_factor,
            bw_streams: self.bw_streams,
            group_len: self.group_len,
        }
    }

    /// The machine's name (preset name, possibly with a restriction
    /// suffix).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of logical CPUs.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of NUMA nodes (1 on UMA machines).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of sockets.
    pub fn n_sockets(&self) -> usize {
        self.n_sockets
    }

    /// Iterator over all core ids.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.cores.iter().map(|c| c.id)
    }

    /// The full static description of one logical CPU.
    pub fn core(&self, id: CoreId) -> &CoreInfo {
        &self.cores[id.0]
    }

    /// The NUMA node `id`'s local memory lives on.
    pub fn node_of(&self, id: CoreId) -> NodeId {
        self.cores[id.0].node
    }

    /// The static relative speed of `id` (1.0 = nominal). Time-varying
    /// frequency ratios ([`crate::freq`]) multiply on top of this value;
    /// the topology itself never changes during a run.
    pub fn speed_of(&self, id: CoreId) -> f64 {
        self.cores[id.0].speed
    }

    /// Bytes of shared cache at the `Cache` level (per group).
    pub fn cache_bytes(&self) -> u64 {
        self.cache_bytes
    }

    /// Bytes of private per-core cache.
    pub fn private_cache_bytes(&self) -> u64 {
        self.private_cache_bytes
    }

    /// Per-sibling speed fraction when both SMT contexts of a physical
    /// core are busy (1.0 on non-SMT machines).
    pub fn smt_busy_factor(&self) -> f64 {
        self.smt_busy_factor
    }

    /// Sustained memory streams per bandwidth domain; infinite when
    /// contention modelling is disabled.
    pub fn bw_streams(&self) -> f64 {
        self.bw_streams
    }

    /// True iff memory-bandwidth contention is modelled.
    pub fn models_bandwidth(&self) -> bool {
        self.bw_streams.is_finite()
    }

    /// The bandwidth domain of a core: its NUMA node on NUMA machines
    /// (per-node memory controllers), the whole machine (domain 0) on UMA
    /// ones (shared front-side bus).
    pub fn bw_domain_of(&self, id: CoreId) -> usize {
        if self.n_nodes > 1 {
            self.cores[id.0].node.0
        } else {
            0
        }
    }

    /// Cores in the given bandwidth domain, as their contiguous id range
    /// (empty for a domain that does not exist).
    pub fn cores_in_bw_domain(&self, domain: usize) -> Range<usize> {
        // Node ids are the Numa-level group numbers; a UMA machine's one
        // node spans every core.
        let len = self.group_len[DomainLevel::Numa as usize];
        let n = self.cores.len();
        (domain * len).min(n)..((domain + 1) * len).min(n)
    }

    /// True iff the machine has more than one NUMA node.
    pub fn is_numa(&self) -> bool {
        self.n_nodes > 1
    }

    /// SMT siblings of `id` (excluding `id` itself); empty on non-SMT parts.
    pub fn smt_siblings(&self, id: CoreId) -> Vec<CoreId> {
        let g = self.cores[id.0].smt_group;
        self.cores
            .iter()
            .filter(|c| c.smt_group == g && c.id != id)
            .map(|c| c.id)
            .collect()
    }

    /// Cores in the given NUMA node.
    pub fn cores_in_node(&self, node: NodeId) -> Vec<CoreId> {
        self.cores
            .iter()
            .filter(|c| c.node == node)
            .map(|c| c.id)
            .collect()
    }

    /// The smallest domain level containing both cores — i.e. the boundary a
    /// migration between them crosses. `Smt` means they share a physical
    /// core (cheapest); `System` means they are on different NUMA nodes of a
    /// NUMA machine or simply share nothing but memory on a UMA machine.
    pub fn common_level(&self, a: CoreId, b: CoreId) -> DomainLevel {
        let ca = &self.cores[a.0];
        let cb = &self.cores[b.0];
        if ca.smt_group == cb.smt_group {
            DomainLevel::Smt
        } else if ca.cache_group == cb.cache_group {
            DomainLevel::Cache
        } else if ca.socket == cb.socket {
            DomainLevel::Socket
        } else if ca.node == cb.node {
            DomainLevel::Numa
        } else {
            DomainLevel::System
        }
    }

    /// True iff moving a task from `a` to `b` crosses a NUMA node boundary.
    pub fn crosses_numa(&self, a: CoreId, b: CoreId) -> bool {
        self.cores[a.0].node != self.cores[b.0].node
    }

    /// The scheduling-domain chain for `core`, bottom-up, as Linux would
    /// build it: each entry is the set of cores `core` can balance with at
    /// that level. Levels whose domain would be identical to the level below
    /// (e.g. `Smt` on non-SMT machines) are skipped, as Linux degenerates
    /// them too. Each level's range is computed from the core id and the
    /// level's group size, so a call neither searches nor allocates.
    pub fn domains_for(&self, core: CoreId) -> DomainChain {
        let n = self.cores.len();
        assert!(core.0 < n, "no core {} on a {n}-core machine", core.0);
        let mut chain = DomainChain {
            domains: [Domain {
                level: DomainLevel::Smt,
                first: 0,
                end: 0,
            }; DomainLevel::ALL.len()],
            len: 0,
        };
        for (level, len) in DomainLevel::ALL.into_iter().zip(self.group_len) {
            let first = core.0 / len * len;
            chain.push_nondegenerate(Domain {
                level,
                first,
                end: (first + len).min(n),
            });
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_by_two() -> Topology {
        Topology::build(&TopologySpec {
            name: "t".into(),
            sockets: 2,
            cores_per_socket: 4,
            smt: 1,
            cores_per_cache_group: 2,
            numa: true,
            ..Default::default()
        })
    }

    #[test]
    fn core_counts() {
        let t = four_by_two();
        assert_eq!(t.n_cores(), 8);
        assert_eq!(t.n_nodes(), 2);
        assert_eq!(t.n_sockets(), 2);
        assert!(t.is_numa());
    }

    #[test]
    fn cache_groups_tile_sockets() {
        let t = four_by_two();
        // Socket 0: cores 0..4, cache groups {0,1}, {2,3}.
        assert_eq!(t.common_level(CoreId(0), CoreId(1)), DomainLevel::Cache);
        assert_eq!(t.common_level(CoreId(0), CoreId(2)), DomainLevel::Socket);
        assert_eq!(t.common_level(CoreId(0), CoreId(4)), DomainLevel::System);
        assert_eq!(t.common_level(CoreId(0), CoreId(0)), DomainLevel::Smt);
    }

    #[test]
    fn numa_assignment_follows_sockets() {
        let t = four_by_two();
        assert_eq!(t.node_of(CoreId(3)), NodeId(0));
        assert_eq!(t.node_of(CoreId(4)), NodeId(1));
        assert!(t.crosses_numa(CoreId(3), CoreId(4)));
        assert!(!t.crosses_numa(CoreId(0), CoreId(3)));
        assert_eq!(t.cores_in_node(NodeId(1)).len(), 4);
    }

    #[test]
    fn uma_machine_has_one_node() {
        let t = Topology::build(&TopologySpec {
            sockets: 4,
            cores_per_socket: 4,
            numa: false,
            cores_per_cache_group: 2,
            ..Default::default()
        });
        assert_eq!(t.n_nodes(), 1);
        assert!(!t.is_numa());
        // Different sockets share the single node => level Numa, not System.
        assert_eq!(t.common_level(CoreId(0), CoreId(15)), DomainLevel::Numa);
    }

    #[test]
    fn smt_siblings() {
        let t = Topology::build(&TopologySpec {
            sockets: 1,
            cores_per_socket: 2,
            smt: 2,
            cores_per_cache_group: 2,
            ..Default::default()
        });
        assert_eq!(t.n_cores(), 4);
        // ids: phys0 -> {0,1}, phys1 -> {2,3}
        assert_eq!(t.smt_siblings(CoreId(0)), vec![CoreId(1)]);
        assert_eq!(t.smt_siblings(CoreId(3)), vec![CoreId(2)]);
        assert_eq!(t.common_level(CoreId(0), CoreId(1)), DomainLevel::Smt);
        assert_eq!(t.common_level(CoreId(1), CoreId(2)), DomainLevel::Cache);
    }

    #[test]
    fn domains_are_bottom_up_and_deduplicated() {
        let t = four_by_two();
        let d = t.domains_for(CoreId(0));
        // No SMT level (degenerate), then cache pair, socket, system.
        assert_eq!(d[0].level, DomainLevel::Cache);
        assert_eq!(d[0].cores().collect::<Vec<_>>(), vec![CoreId(0), CoreId(1)]);
        assert_eq!(d[1].level, DomainLevel::Socket);
        assert_eq!(d[1].n_cores(), 4);
        assert_eq!(d.last().unwrap().level, DomainLevel::System);
        assert_eq!(d.last().unwrap().n_cores(), 8);
        for w in d.windows(2) {
            assert!(w[0].n_cores() < w[1].n_cores(), "strictly growing");
            assert!(w[1].cores().any(|c| c == CoreId(0)));
        }
    }

    #[test]
    fn single_core_has_no_domains() {
        let t = Topology::build(&TopologySpec {
            sockets: 1,
            cores_per_socket: 1,
            cores_per_cache_group: 1,
            ..Default::default()
        });
        assert!(t.domains_for(CoreId(0)).is_empty());
    }

    #[test]
    fn restrict_preserves_structure() {
        let t = four_by_two();
        let r = t.restrict(5);
        assert_eq!(r.n_cores(), 5);
        assert_eq!(r.n_nodes(), 2); // core 4 is on node 1
        assert_eq!(r.node_of(CoreId(4)), NodeId(1));
        let r3 = t.restrict(3);
        assert_eq!(r3.n_nodes(), 1);
    }

    #[test]
    fn speeds_extend_with_last_value() {
        let t = Topology::build(&TopologySpec {
            sockets: 1,
            cores_per_socket: 4,
            cores_per_cache_group: 4,
            speeds: vec![2.0, 1.0],
            ..Default::default()
        });
        assert_eq!(t.speed_of(CoreId(0)), 2.0);
        assert_eq!(t.speed_of(CoreId(1)), 1.0);
        assert_eq!(t.speed_of(CoreId(3)), 1.0);
    }

    /// The filter-based chain builder `domains_for` replaced: one member
    /// list per level, built by scanning every core for an equal group key.
    fn reference_chain(t: &Topology, core: CoreId) -> Vec<(DomainLevel, Vec<CoreId>)> {
        let info = t.core(core);
        let mut out: Vec<(DomainLevel, Vec<CoreId>)> = Vec::new();
        let mut push_level = |level: DomainLevel, members: Vec<CoreId>| {
            if members.len() <= 1 {
                return;
            }
            if let Some((_, last)) = out.last() {
                if *last == members {
                    return;
                }
            }
            out.push((level, members));
        };
        let members = |same: &dyn Fn(&CoreInfo) -> bool| -> Vec<CoreId> {
            t.core_ids().filter(|c| same(t.core(*c))).collect()
        };
        push_level(
            DomainLevel::Smt,
            members(&|c| c.smt_group == info.smt_group),
        );
        push_level(
            DomainLevel::Cache,
            members(&|c| c.cache_group == info.cache_group),
        );
        push_level(DomainLevel::Socket, members(&|c| c.socket == info.socket));
        push_level(DomainLevel::Numa, members(&|c| c.node == info.node));
        push_level(DomainLevel::System, members(&|_| true));
        out
    }

    /// Every preset shape, plus each of its `restrict(n)` prefixes.
    fn oracle_machines() -> Vec<Topology> {
        use crate::presets::*;
        let full = vec![
            tigerton(),
            barcelona(),
            nehalem(),
            asymmetric(2, 6, 2.0),
            asymmetric(1, 1, 2.0),
            big_little(4, 8, 1.0, 0.55),
            big_little(4, 4, 1.0, 0.55),
            uniform(1),
            uniform(2),
            uniform(8),
            uniform(128),
        ];
        full.iter()
            .flat_map(|t| (1..=t.n_cores()).map(move |n| t.restrict(n)))
            .collect()
    }

    #[test]
    fn domain_chains_match_filter_reference() {
        for t in oracle_machines() {
            for c in t.core_ids() {
                let chain: Vec<(DomainLevel, Vec<CoreId>)> = t
                    .domains_for(c)
                    .iter()
                    .map(|d| (d.level, d.cores().collect()))
                    .collect();
                assert_eq!(chain, reference_chain(&t, c), "{} core {}", t.name(), c.0);
            }
        }
    }

    #[test]
    fn group_keys_never_decrease_in_id_order() {
        for t in oracle_machines() {
            for level in DomainLevel::ALL {
                let keys: Vec<usize> = t.core_ids().map(|c| t.core(c).group_key(level)).collect();
                assert!(
                    keys.windows(2).all(|w| w[0] <= w[1]),
                    "{} {level:?} keys {keys:?}",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn bw_domains_are_the_reference_member_sets() {
        for t in oracle_machines() {
            let n_domains = t.core_ids().map(|c| t.bw_domain_of(c)).max().unwrap() + 1;
            for d in 0..n_domains {
                let want: Vec<usize> = t
                    .core_ids()
                    .filter(|c| t.bw_domain_of(*c) == d)
                    .map(|c| c.0)
                    .collect();
                assert_eq!(t.cores_in_bw_domain(d).collect::<Vec<_>>(), want);
            }
            assert!(t.cores_in_bw_domain(n_domains).is_empty());
        }
    }

    #[test]
    fn domain_level_ordering() {
        assert!(DomainLevel::Smt < DomainLevel::Cache);
        assert!(DomainLevel::Cache < DomainLevel::Socket);
        assert!(DomainLevel::Socket < DomainLevel::Numa);
        assert!(DomainLevel::Numa < DomainLevel::System);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn spec_strategy() -> impl Strategy<Value = TopologySpec> {
        (
            1usize..=4, // sockets
            1usize..=8, // cores per socket
            1usize..=2, // smt
            any::<bool>(),
            0usize..=2, // cache group divisor selector
        )
            .prop_map(|(sockets, cps, smt, numa, sel)| {
                // Pick a cache-group size that divides cores_per_socket.
                let divisors: Vec<usize> = (1..=cps).filter(|d| cps % d == 0).collect();
                let cores_per_cache_group = divisors[sel % divisors.len()];
                TopologySpec {
                    name: "prop".into(),
                    sockets,
                    cores_per_socket: cps,
                    smt,
                    cores_per_cache_group,
                    numa,
                    ..Default::default()
                }
            })
    }

    proptest! {
        /// Core ids are dense, and every hierarchy level partitions them.
        #[test]
        fn hierarchy_is_consistent(spec in spec_strategy()) {
            let t = Topology::build(&spec);
            prop_assert_eq!(
                t.n_cores(),
                spec.sockets * spec.cores_per_socket * spec.smt
            );
            for (i, c) in t.core_ids().enumerate() {
                prop_assert_eq!(c, CoreId(i));
            }
            // Nodes partition the cores.
            let node_total: usize = (0..t.n_nodes())
                .map(|n| t.cores_in_node(NodeId(n)).len())
                .sum();
            prop_assert_eq!(node_total, t.n_cores());
            // common_level is symmetric and Smt iff same id or SMT sibling.
            for a in t.core_ids() {
                for b in t.core_ids() {
                    prop_assert_eq!(t.common_level(a, b), t.common_level(b, a));
                }
            }
        }

        /// Per-core domain chains are strictly nested and always contain
        /// the owning core.
        #[test]
        fn domain_chains_nest(spec in spec_strategy()) {
            let t = Topology::build(&spec);
            for c in t.core_ids() {
                let chain = t.domains_for(c);
                let mut prev_len = 1usize;
                for dom in chain.iter() {
                    prop_assert!(dom.cores().any(|x| x == c));
                    prop_assert!(dom.n_cores() > prev_len || prev_len == 1);
                    prop_assert!(dom.n_cores() >= prev_len);
                    prev_len = dom.n_cores();
                }
                if let Some(last) = chain.last() {
                    // The top of a multi-core machine's chain is everything.
                    if t.n_cores() > 1 {
                        prop_assert_eq!(last.n_cores(), t.n_cores());
                    }
                }
            }
        }

        /// `restrict(n)` preserves prefix identity of the core inventory.
        #[test]
        fn restrict_is_prefix(spec in spec_strategy(), keep in 1usize..=64) {
            let t = Topology::build(&spec);
            let keep = keep.min(t.n_cores());
            let r = t.restrict(keep);
            prop_assert_eq!(r.n_cores(), keep);
            for c in r.core_ids() {
                prop_assert_eq!(r.node_of(c), t.node_of(c));
                prop_assert_eq!(r.speed_of(c), t.speed_of(c));
            }
        }
    }
}
