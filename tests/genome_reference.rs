//! The dense genome against the sparse reference it replaced.
//!
//! `Individual` used to hold its fission set as a `BTreeSet` and its
//! grouping as a `BTreeMap` from unit to group, and decided feasibility by
//! walking `SearchSpace::edges` through map lookups. That code lives on
//! below as the reference, run over the sparse form read back from the
//! dense genome. The properties require the dense `feasible`, `topo_order`,
//! total order and debug form to agree with it on random genomes, feasible
//! and infeasible, over the application analogs and `sf_fuzz` generated
//! programs: fissioned states included, and whole-loop temporal groups
//! that carry hard edges (`max_temporal` 4).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sf_apps::AppConfig;
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_minicuda::ast::Program;
use sf_minicuda::host::ExecutablePlan;
use sf_search::{Individual, SearchSpace};
use std::sync::OnceLock;

/// The genome and feasibility rules as they were before the dense layout.
mod reference {
    use sf_search::SearchSpace;
    use std::collections::{BTreeMap, BTreeSet};

    /// Named like the type it models so its derived `Debug` is the format
    /// the dense genome must reproduce.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    pub struct Individual {
        pub fissioned: BTreeSet<usize>,
        pub group_of: BTreeMap<usize, usize>,
    }

    impl Individual {
        pub fn of(ind: &sf_search::Individual) -> Individual {
            Individual {
                fissioned: ind.fissioned().collect(),
                group_of: ind.assignments().collect(),
            }
        }

        pub fn groups(&self) -> BTreeMap<usize, Vec<usize>> {
            let mut out: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (&u, &g) in &self.group_of {
                out.entry(g).or_default().push(u);
            }
            out
        }

        pub fn feasible(&self, space: &SearchSpace) -> bool {
            let mut exempt: BTreeMap<usize, bool> = BTreeMap::new();
            for (&(a, b), e) in &space.edges {
                if !e.hard {
                    continue;
                }
                if let (Some(&ga), Some(&gb)) = (self.group_of.get(&a), self.group_of.get(&b)) {
                    if ga == gb {
                        let ok = *exempt.entry(ga).or_insert_with(|| {
                            let members: Vec<usize> = self
                                .group_of
                                .iter()
                                .filter(|(_, &g)| g == ga)
                                .map(|(&u, _)| u)
                                .collect();
                            temporal_group(space, &members).is_some()
                        });
                        if !ok {
                            return false;
                        }
                    }
                }
            }
            self.topo_order(space).is_some()
        }

        pub fn topo_order(&self, space: &SearchSpace) -> Option<Vec<usize>> {
            let groups = self.groups();
            let gids: Vec<usize> = groups.keys().copied().collect();
            let gidx: BTreeMap<usize, usize> =
                gids.iter().enumerate().map(|(i, &g)| (g, i)).collect();
            let m = gids.len();
            let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); m];
            let mut indeg = vec![0usize; m];
            for &(a, b) in space.edges.keys() {
                let (Some(&ga), Some(&gb)) = (self.group_of.get(&a), self.group_of.get(&b)) else {
                    continue;
                };
                if ga == gb {
                    continue;
                }
                let (ia, ib) = (gidx[&ga], gidx[&gb]);
                if adj[ia].insert(ib) {
                    indeg[ib] += 1;
                }
            }
            let min_member: Vec<usize> = gids
                .iter()
                .map(|g| *groups[g].iter().min().expect("non-empty group"))
                .collect();
            let mut ready: BTreeSet<(usize, usize)> = (0..m)
                .filter(|&i| indeg[i] == 0)
                .map(|i| (min_member[i], i))
                .collect();
            let mut order = Vec::with_capacity(m);
            while let Some(&(mm, i)) = ready.iter().next() {
                ready.remove(&(mm, i));
                order.push(gids[i]);
                for &s in &adj[i] {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        ready.insert((min_member[s], s));
                    }
                }
            }
            (order.len() == m).then_some(order)
        }
    }

    pub fn temporal_group(space: &SearchSpace, members: &[usize]) -> Option<usize> {
        if space.max_temporal < 2 || members.len() < 2 {
            return None;
        }
        if members
            .iter()
            .any(|&m| space.units[m].mref.fission_component.is_some())
        {
            return None;
        }
        let li = space.units[members[0]].loop_id?;
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        let mut loop_units = space.loops[li].units.clone();
        loop_units.sort_unstable();
        (sorted == loop_units).then_some(li)
    }
}

fn space_of(program: &Program, max_temporal: u32) -> SearchSpace {
    let plan = ExecutablePlan::from_program(program).expect("plan");
    let device = DeviceSpec::k20x();
    let profile = Profiler::analytic(device.clone())
        .profile_with_plan(program, &plan)
        .expect("profile");
    let decisions = sf_analysis::filter::identify_targets(
        &profile.metadata.perf,
        &profile.metadata.ops,
        &profile.metadata.device,
        &sf_analysis::filter::FilterConfig::default(),
    );
    let mut space =
        SearchSpace::build(program, &plan, &profile, &decisions, device).expect("space");
    space.max_temporal = max_temporal;
    space
}

/// A three-kernel time loop: two independent readers of `a`, then a
/// combine that overwrites `a`. Each reader has a hard (anti) edge to the
/// combine, so a group of one reader and the combine carries a hard edge
/// without covering the loop.
const SPLIT_LOOP: &str = r#"
__global__ void left(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = a[k][j][i-1] * 0.5; } }
}
__global__ void right(const double* __restrict__ a, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = a[k][j][i+1] * 0.5; } }
}
__global__ void combine(const double* __restrict__ b, const double* __restrict__ c, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = b[k][j][i] + c[k][j][i]; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 4;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(a);
  for (int t = 0; t < 8; t++) {
    left<<<dim3(2, 1), dim3(32, 32)>>>(a, b, nx, ny, nz);
    right<<<dim3(2, 1), dim3(32, 32)>>>(a, c, nx, ny, nz);
    combine<<<dim3(2, 1), dim3(32, 32)>>>(b, c, a, nx, ny, nz);
  }
  cudaMemcpyD2H(a);
}
"#;

/// Every analog, a handful of generated programs (flat and time-looped)
/// and [`SPLIT_LOOP`], each at temporal ceilings 1 and 4.
fn spaces() -> &'static [SearchSpace] {
    static SPACES: OnceLock<Vec<SearchSpace>> = OnceLock::new();
    SPACES.get_or_init(|| {
        let mut programs: Vec<Program> = sf_apps::APP_NAMES
            .iter()
            .map(|name| {
                sf_apps::app_by_name(name, &AppConfig::test())
                    .expect("known app")
                    .program
            })
            .collect();
        for seed in 1..=4 {
            programs
                .push(sf_fuzz::gen::generate(seed, &sf_fuzz::gen::GenConfig::default()).program);
            programs
                .push(sf_fuzz::gen::generate(seed, &sf_fuzz::gen::GenConfig::temporal()).program);
        }
        programs.push(sf_minicuda::parse_program(SPLIT_LOOP).expect("parses"));
        programs
            .iter()
            .flat_map(|p| [space_of(p, 1), space_of(p, 4)])
            .collect()
    })
}

/// A random genome: random fissions, then one of four shapes — a chain
/// of feasibility-preserving merges, that chain with one unchecked
/// regrouping, an arbitrary unchecked partition (mostly infeasible), or a
/// group of part of a time loop (a temporal near-miss). Spaces with time
/// loops often get a whole-loop group on top.
fn random_genome(space: &SearchSpace, rng: &mut StdRng) -> Individual {
    let mut ind = Individual::singletons(space);
    for u in &space.units {
        if u.fissionable() && rng.gen_bool(0.3) {
            ind.fission(space, u.id);
        }
    }
    let active = ind.active_units();
    let pick = |rng: &mut StdRng| active[rng.gen_range(0..active.len())];
    match rng.gen_range(0..4) {
        0 | 1 => {
            for _ in 0..active.len() * 2 {
                let (a, b) = (pick(rng), pick(rng));
                ind.try_merge(space, a, b);
            }
            if rng.gen_bool(0.5) {
                let (u, v) = (pick(rng), pick(rng));
                let g = ind.group(v).unwrap();
                ind.set_group(u, g);
            }
        }
        2 => {
            let pool = active.len().div_ceil(2).max(1);
            for &u in &active {
                if rng.gen_bool(0.6) {
                    ind.set_group(u, rng.gen_range(0..pool));
                }
            }
        }
        _ => {
            let units = loop_units(space, &ind, rng);
            if units.len() >= 3 {
                let g = ind.fresh_group_id();
                let keep = rng.gen_range(2..units.len());
                let start = rng.gen_range(0..=units.len() - keep);
                for &u in &units[start..start + keep] {
                    ind.set_group(u, g);
                }
            }
        }
    }
    if rng.gen_bool(0.5) {
        let units = loop_units(space, &ind, rng);
        let g = ind.fresh_group_id();
        for u in units {
            ind.set_group(u, g);
        }
    }
    ind
}

/// The active units of a random time loop of `space` (none without loops).
fn loop_units(space: &SearchSpace, ind: &Individual, rng: &mut StdRng) -> Vec<usize> {
    if space.loops.is_empty() {
        return Vec::new();
    }
    let l = &space.loops[rng.gen_range(0..space.loops.len())];
    l.units
        .iter()
        .copied()
        .filter(|&u| ind.is_active(u))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_genome_matches_the_sparse_reference(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for space in spaces() {
            let a = random_genome(space, &mut rng);
            let b = random_genome(space, &mut rng);
            let (ra, rb) = (reference::Individual::of(&a), reference::Individual::of(&b));
            prop_assert_eq!(a.feasible(space), ra.feasible(space), "feasible: {:?}", a);
            prop_assert_eq!(a.topo_order(space), ra.topo_order(space), "topo: {:?}", a);
            prop_assert_eq!(a.cmp(&b), ra.cmp(&rb), "order: {:?} vs {:?}", a, b);
            prop_assert_eq!(a == b, ra == rb);
            prop_assert_eq!(format!("{a:?}"), format!("{ra:?}"));
            prop_assert_eq!(a.groups(), ra.groups());
        }
    }
}

/// The generator must reach what the property claims to cover: fissioned
/// genomes, both feasibility outcomes, whole-loop temporal groups that
/// carry hard edges (feasible only through the exemption), and part-loop
/// groups that carry them (never exempt).
#[test]
fn random_genomes_cover_fission_temporal_groups_and_both_outcomes() {
    let mut rng = StdRng::seed_from_u64(7);
    let (mut fissioned, mut feasible, mut infeasible) = (0, 0, 0);
    let (mut whole_loops, mut part_loops) = (0, 0);
    for _ in 0..32 {
        for space in spaces() {
            let ind = random_genome(space, &mut rng);
            fissioned += usize::from(ind.fission_count() > 0);
            if ind.feasible(space) {
                feasible += 1;
            } else {
                infeasible += 1;
            }
            if space.max_temporal < 2 {
                continue;
            }
            for members in reference::Individual::of(&ind).groups().values() {
                let hard_inside = members.iter().any(|&a| {
                    members
                        .iter()
                        .any(|&b| space.edges.get(&(a, b)).is_some_and(|e| e.hard))
                });
                let in_one_loop = members.iter().all(|&m| {
                    space.units[m].loop_id.is_some()
                        && space.units[m].loop_id == space.units[members[0]].loop_id
                });
                if hard_inside && in_one_loop {
                    if reference::temporal_group(space, members).is_some() {
                        whole_loops += 1;
                    } else {
                        part_loops += 1;
                    }
                }
            }
        }
    }
    assert!(
        fissioned > 0 && feasible > 0 && infeasible > 0 && whole_loops > 0 && part_loops > 0,
        "fissioned {fissioned}, feasible {feasible}, infeasible {infeasible}, \
         whole-loop {whole_loops}, part-loop {part_loops}"
    );
}
