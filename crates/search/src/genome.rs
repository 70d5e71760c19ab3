//! The grouping genome and its feasibility rules.
//!
//! An individual is (a) the set of originals currently replaced by their
//! fission products, and (b) a partition of the active units into groups.
//! Groups are the genes of a grouped GA: operators act on whole groups.
//!
//! The genome is dense: a group id per unit id, with a sentinel for
//! inactive units, plus a fission bitset. Every check the GA's inner loop
//! makes on it — feasibility, merges, the group view the objective walks —
//! runs over the space's flattened edge lists in reusable per-thread
//! `Scratch` buffers, so breeding and scoring a candidate allocates
//! nothing beyond the child itself.

use crate::bitset::UnitSet;
use crate::space::SearchSpace;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

/// Group id of a unit that is not active: a fissioned original, or a
/// product of an original that is not fissioned.
const INACTIVE: u32 = u32::MAX;

/// One candidate solution.
///
/// Totally ordered — lexicographically over the fission set, then over the
/// `(unit, group)` pairs in unit order — so island merges and migrant
/// selection can break fitness ties deterministically, and serde so
/// checkpoints can snapshot whole populations.
#[derive(Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Individual {
    /// Group id per unit id; [`INACTIVE`] for inactive units.
    group: Vec<u32>,
    /// Original unit ids replaced by their products.
    fissioned: UnitSet,
}

impl Clone for Individual {
    fn clone(&self) -> Individual {
        Individual {
            group: self.group.clone(),
            fissioned: self.fissioned.clone(),
        }
    }

    /// Reuses `self`'s buffers: reverting a rejected move allocates nothing.
    fn clone_from(&mut self, source: &Individual) {
        self.group.clone_from(&source.group);
        self.fissioned.clone_from(&source.fissioned);
    }
}

impl Individual {
    /// The all-singletons individual over the original units.
    pub fn singletons(space: &SearchSpace) -> Individual {
        Individual {
            group: space
                .units
                .iter()
                .map(|u| {
                    if u.parent.is_none() {
                        u.id as u32
                    } else {
                        INACTIVE
                    }
                })
                .collect(),
            fissioned: UnitSet::with_capacity(space.units.len()),
        }
    }

    /// The group of `unit`, or `None` when the unit is not active.
    pub fn group(&self, unit: usize) -> Option<usize> {
        match self.group.get(unit) {
            Some(&g) if g != INACTIVE => Some(g as usize),
            _ => None,
        }
    }

    /// Whether `unit` is active (an unfissioned original or a product of a
    /// fissioned one).
    pub fn is_active(&self, unit: usize) -> bool {
        self.group(unit).is_some()
    }

    /// Move an active unit into group `group` (new or existing), without a
    /// feasibility check.
    ///
    /// # Panics
    /// If `unit` is not active.
    pub fn set_group(&mut self, unit: usize, group: usize) {
        assert!(self.is_active(unit), "unit {unit} is not active");
        self.group[unit] = group as u32;
    }

    /// `(unit, group)` for every active unit, in ascending unit order.
    pub fn assignments(&self) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        self.group
            .iter()
            .enumerate()
            .filter(|(_, &g)| g != INACTIVE)
            .map(|(u, &g)| (u, g as usize))
    }

    /// Fissioned original unit ids, ascending.
    pub fn fissioned(&self) -> impl Iterator<Item = usize> + '_ {
        self.fissioned.iter()
    }

    /// Number of fissioned originals.
    pub fn fission_count(&self) -> usize {
        self.fissioned.len()
    }

    /// Active unit ids (originals not fissioned + products of fissioned).
    pub fn active_units(&self) -> Vec<usize> {
        self.assignments().map(|(u, _)| u).collect()
    }

    /// Members per group id.
    pub fn groups(&self) -> BTreeMap<usize, Vec<usize>> {
        let mut out: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (u, g) in self.assignments() {
            out.entry(g).or_default().push(u);
        }
        out
    }

    /// Groups with at least two members.
    pub fn fusion_groups(&self) -> Vec<Vec<usize>> {
        self.groups()
            .into_values()
            .filter(|m| m.len() > 1)
            .collect()
    }

    /// A fresh group id not currently in use.
    pub fn fresh_group_id(&self) -> usize {
        self.group
            .iter()
            .filter(|&&g| g != INACTIVE)
            .max()
            .map_or(0, |&m| m as usize + 1)
    }

    /// Replace an original unit by its fission products (each initially a
    /// singleton). No-op if the unit has no products or is already split.
    pub fn fission(&mut self, space: &SearchSpace, unit: usize) {
        let u = &space.units[unit];
        if u.products.is_empty() || self.fissioned.contains(unit) {
            return;
        }
        self.group[unit] = INACTIVE;
        self.fissioned.insert(unit);
        let base = self.fresh_group_id();
        for (g, &p) in (base..).zip(u.products.iter()) {
            self.group[p] = g as u32;
        }
    }

    /// Put a fissioned original back, removing its products.
    pub fn defission(&mut self, space: &SearchSpace, unit: usize) {
        if !self.fissioned.remove(unit) {
            return;
        }
        for &p in &space.units[unit].products {
            self.group[p] = INACTIVE;
        }
        let g = self.fresh_group_id();
        self.group[unit] = g as u32;
    }

    /// OEG feasibility: no hard edge inside a group, and the quotient of
    /// the precedence subgraph over active units is acyclic.
    ///
    /// Exception: a group that exactly covers one recorded host time loop
    /// (a temporal-fold candidate, see [`SearchSpace::temporal_group`])
    /// may carry intra-group hard edges — the loop-carried anti
    /// dependences of a ping-pong chain are exactly what temporal folding
    /// legalizes with shadow arrays. With the temporal dimension disabled
    /// (`max_temporal == 1`) no exemption applies.
    pub fn feasible(&self, space: &SearchSpace) -> bool {
        with_scratch(|s| self.feasible_in(space, s))
    }

    /// [`Individual::feasible`] in caller-provided scratch.
    pub(crate) fn feasible_in(&self, space: &SearchSpace, s: &mut Scratch) -> bool {
        s.view.load(self);
        let Scratch {
            view,
            exempt,
            indeg,
            ready,
            ..
        } = s;
        // Hard edges within a group; each group's temporal exemption is
        // decided once.
        exempt.clear();
        exempt.resize(view.len(), false);
        for &(a, b) in &space.index.hard_edges {
            let k = view.slot_of[a as usize];
            if k == INACTIVE || k != view.slot_of[b as usize] || exempt[k as usize] {
                continue;
            }
            let members = view.members(k as usize);
            if space
                .temporal_loop(members.len(), members.iter().map(|&u| u as usize))
                .is_none()
            {
                return false;
            }
            exempt[k as usize] = true;
        }
        // Kahn's algorithm over the quotient, in any order.
        view.quotient_indegrees(space, indeg);
        ready.clear();
        ready.extend((0..view.len() as u32).filter(|&k| indeg[k as usize] == 0));
        let mut visited = 0;
        while let Some(k) = ready.pop() {
            visited += 1;
            view.release_successors(space, k, indeg, |next| ready.push(next));
        }
        visited == view.len()
    }

    /// Topological order of the groups (by min member unit id on ties);
    /// `None` when the quotient has a cycle.
    pub fn topo_order(&self, space: &SearchSpace) -> Option<Vec<usize>> {
        with_scratch(|s| {
            s.view.load(self);
            let Scratch { view, indeg, .. } = s;
            view.quotient_indegrees(space, indeg);
            let min_member = |k: u32| view.members(k as usize)[0];
            let mut ready: BinaryHeap<Reverse<(u32, u32)>> = (0..view.len() as u32)
                .filter(|&k| indeg[k as usize] == 0)
                .map(|k| Reverse((min_member(k), k)))
                .collect();
            let mut order = Vec::with_capacity(view.len());
            while let Some(Reverse((_, k))) = ready.pop() {
                order.push(view.id(k as usize));
                view.release_successors(space, k, indeg, |next| {
                    ready.push(Reverse((min_member(next), next)))
                });
            }
            (order.len() == view.len()).then_some(order)
        })
    }

    /// Try to merge the groups of units `a` and `b`; reverts and returns
    /// false if the result is infeasible.
    pub fn try_merge(&mut self, space: &SearchSpace, a: usize, b: usize) -> bool {
        with_scratch(|s| self.try_merge_in(space, a, b, s))
    }

    /// [`Individual::try_merge`] in caller-provided scratch.
    pub(crate) fn try_merge_in(
        &mut self,
        space: &SearchSpace,
        a: usize,
        b: usize,
        s: &mut Scratch,
    ) -> bool {
        let (Some(ga), Some(gb)) = (self.group(a), self.group(b)) else {
            return false;
        };
        if ga == gb {
            return false;
        }
        let (ga, gb) = (ga as u32, gb as u32);
        // Ineligible units stay singletons.
        if self
            .group
            .iter()
            .zip(&space.units)
            .any(|(&g, u)| (g == ga || g == gb) && !u.eligible)
        {
            return false;
        }
        s.moved.clear();
        for (u, g) in self.group.iter_mut().enumerate() {
            if *g == gb {
                *g = ga;
                s.moved.push(u as u32);
            }
        }
        if self.feasible_in(space, s) {
            return true;
        }
        for &u in &s.moved {
            self.group[u as usize] = gb;
        }
        false
    }
}

impl Ord for Individual {
    fn cmp(&self, other: &Individual) -> Ordering {
        self.fissioned
            .iter()
            .cmp(other.fissioned.iter())
            .then_with(|| self.assignments().cmp(other.assignments()))
    }
}

impl PartialOrd for Individual {
    fn partial_cmp(&self, other: &Individual) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Prints the sparse form — the fission set and the `(unit, group)` map.
impl fmt::Debug for Individual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Fissioned<'a>(&'a Individual);
        impl fmt::Debug for Fissioned<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.fissioned()).finish()
            }
        }
        struct GroupOf<'a>(&'a Individual);
        impl fmt::Debug for GroupOf<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.assignments()).finish()
            }
        }
        f.debug_struct("Individual")
            .field("fissioned", &Fissioned(self))
            .field("group_of", &GroupOf(self))
            .finish()
    }
}

/// An individual's groups laid out flat: groups in ascending id, each
/// group's members in ascending unit id — the order in which every float
/// sum and random draw over groups visits them.
#[derive(Debug, Default)]
pub(crate) struct GroupView {
    /// Group id per slot, ascending.
    ids: Vec<u32>,
    /// Slot `k`'s members are `members[bounds[k]..bounds[k + 1]]`.
    bounds: Vec<u32>,
    members: Vec<u32>,
    /// Slot per unit id; [`INACTIVE`] for inactive units.
    slot_of: Vec<u32>,
    /// Per group id while loading: member count, then slot.
    slot_by_id: Vec<u32>,
    cursor: Vec<u32>,
}

impl GroupView {
    /// Lay out `ind`'s groups (a counting sort by group id).
    pub(crate) fn load(&mut self, ind: &Individual) {
        self.ids.clear();
        self.bounds.clear();
        self.bounds.push(0);
        self.members.clear();
        self.slot_of.clear();
        self.slot_of.resize(ind.group.len(), INACTIVE);
        let Some(max) = ind.group.iter().copied().filter(|&g| g != INACTIVE).max() else {
            return;
        };
        self.slot_by_id.clear();
        self.slot_by_id.resize(max as usize + 1, 0);
        for &g in &ind.group {
            if g != INACTIVE {
                self.slot_by_id[g as usize] += 1;
            }
        }
        let mut end = 0;
        for (g, entry) in self.slot_by_id.iter_mut().enumerate() {
            if *entry > 0 {
                end += *entry;
                *entry = self.ids.len() as u32;
                self.ids.push(g as u32);
                self.bounds.push(end);
            }
        }
        self.members.resize(end as usize, 0);
        self.cursor.clear();
        self.cursor
            .extend_from_slice(&self.bounds[..self.ids.len()]);
        for (u, &g) in ind.group.iter().enumerate() {
            if g != INACTIVE {
                let k = self.slot_by_id[g as usize];
                self.slot_of[u] = k;
                self.members[self.cursor[k as usize] as usize] = u as u32;
                self.cursor[k as usize] += 1;
            }
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Group id of slot `k`.
    pub(crate) fn id(&self, k: usize) -> usize {
        self.ids[k] as usize
    }

    /// Members of slot `k`, ascending.
    pub(crate) fn members(&self, k: usize) -> &[u32] {
        &self.members[self.bounds[k] as usize..self.bounds[k + 1] as usize]
    }

    /// Slots of the groups with at least two members, ascending.
    pub(crate) fn fusion_slots(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.len()).filter(|&k| self.bounds[k + 1] - self.bounds[k] > 1)
    }

    /// In-degree of every slot in the quotient graph (one count per unit
    /// edge between two groups; duplicates are harmless to Kahn's
    /// algorithm, which releases them one by one).
    fn quotient_indegrees(&self, space: &SearchSpace, indeg: &mut Vec<u32>) {
        indeg.clear();
        indeg.resize(self.len(), 0);
        for (a, &k) in self.slot_of.iter().enumerate() {
            if k == INACTIVE {
                continue;
            }
            for &b in space.index.succ(a) {
                let kb = self.slot_of[b as usize];
                if kb != INACTIVE && kb != k {
                    indeg[kb as usize] += 1;
                }
            }
        }
    }

    /// Retire slot `k`: drop the in-degree of each quotient successor and
    /// hand every slot that becomes ready to `ready`.
    fn release_successors(
        &self,
        space: &SearchSpace,
        k: u32,
        indeg: &mut [u32],
        mut ready: impl FnMut(u32),
    ) {
        for &a in self.members(k as usize) {
            for &b in space.index.succ(a as usize) {
                let kb = self.slot_of[b as usize];
                if kb != INACTIVE && kb != k {
                    indeg[kb as usize] -= 1;
                    if indeg[kb as usize] == 0 {
                        ready(kb);
                    }
                }
            }
        }
    }
}

/// Reusable buffers for the GA's inner loop. One per thread (see
/// [`with_scratch`]); the operators thread it through their calls so a
/// whole breeding step borrows it once.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The group view most recently loaded.
    pub(crate) view: GroupView,
    /// A unit list owned by one operator at a time: take it with
    /// `std::mem::take` and put it back.
    pub(crate) units: Vec<u32>,
    /// A snapshot for reverting a rejected move.
    pub(crate) saved: Individual,
    /// Units a pending merge relabelled.
    moved: Vec<u32>,
    exempt: Vec<bool>,
    indeg: Vec<u32>,
    ready: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Run `f` with this thread's [`Scratch`]. Not reentrant: code running
/// inside `f` must use the `*_in` variants with the scratch it was given.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::tests::space_for;

    const CHAIN: &str = r#"
__global__ void k1(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = a[k][j][i] + 1.0; } }
}
__global__ void k2(const double* __restrict__ b, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = b[k][j][i] * 2.0; } }
}
__global__ void k3(const double* __restrict__ c, double* d, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { d[k][j][i] = c[k][j][i] - 3.0; } }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  k1<<<dim3(2, 2), dim3(16, 8)>>>(a, b, nx, ny, nz);
  k2<<<dim3(2, 2), dim3(16, 8)>>>(b, c, nx, ny, nz);
  k3<<<dim3(2, 2), dim3(16, 8)>>>(c, d, nx, ny, nz);
}
"#;

    #[test]
    fn singletons_are_feasible() {
        let space = space_for(CHAIN);
        let ind = Individual::singletons(&space);
        assert!(ind.feasible(&space));
        assert_eq!(ind.active_units().len(), 3);
    }

    #[test]
    fn skip_fusion_creates_quotient_cycle() {
        let space = space_for(CHAIN);
        let mut ind = Individual::singletons(&space);
        // Grouping k1 with k3 while k2 stays outside: infeasible.
        assert!(!ind.try_merge(&space, 0, 2));
        // State reverted.
        assert!(ind.feasible(&space));
        assert_eq!(ind.fusion_groups().len(), 0);
        // Chain fusion k1+k2 then +k3 is fine.
        assert!(ind.try_merge(&space, 0, 1));
        assert!(ind.try_merge(&space, 0, 2));
        assert_eq!(ind.fusion_groups().len(), 1);
    }

    #[test]
    fn topo_order_follows_flow() {
        let space = space_for(CHAIN);
        let mut ind = Individual::singletons(&space);
        assert!(ind.try_merge(&space, 1, 2));
        let order = ind.topo_order(&space).unwrap();
        // k1's group before the {k2,k3} group.
        let g1 = ind.group(0).unwrap();
        let g23 = ind.group(1).unwrap();
        let p1 = order.iter().position(|&g| g == g1).unwrap();
        let p23 = order.iter().position(|&g| g == g23).unwrap();
        assert!(p1 < p23);
    }

    #[test]
    fn fission_and_defission_round_trip() {
        let space = space_for(
            r#"
__global__ void pair(const double* __restrict__ x, const double* __restrict__ y,
                     double* a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      a[k][j][i] = x[k][j][i] * 2.0;
      b[k][j][i] = y[k][j][i] + 1.0;
    }
  }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* x = cudaAlloc3D(nz, ny, nx);
  double* y = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  pair<<<dim3(2, 2), dim3(16, 8)>>>(x, y, a, b, nx, ny, nz);
}
"#,
        );
        let mut ind = Individual::singletons(&space);
        let before = ind.clone();
        ind.fission(&space, 0);
        assert!(!ind.is_active(0));
        assert_eq!(ind.active_units().len(), 2);
        assert!(ind.feasible(&space));
        ind.defission(&space, 0);
        assert_eq!(ind.active_units(), before.active_units());
    }
}
