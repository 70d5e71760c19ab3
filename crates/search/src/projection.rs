//! The memoized projection engine: one shared [`TimingModel`] per search
//! run plus a content-addressed cache of [`GroupCost`]s.
//!
//! GGA offspring share most of their groups with their parents —
//! crossover and mutation touch only a few groups per child — so nearly
//! every lookup of a run is a hit (over 99% on the application analogs).
//! A group's projected cost depends only on its member units (fission
//! state is carried by the unit ids themselves: a product is a distinct
//! unit) and its temporal degree, so the cost is cached under the *sorted
//! member ids followed by the degree*, one `u32` each. Mutating a group
//! changes its member set and therefore its key — a stale cost can never
//! be reused.
//!
//! A hit is allocation-free: the key is assembled in a reused per-thread
//! buffer, probed as a borrowed `[u32]`, and hashed with `KeyHasher`.
//! The cache sits behind a mutex because island threads share one engine;
//! within one search evaluation is serial, so the lock is uncontended
//! there, and the critical section is a hash-map probe.

use crate::objective::{group_cost, GroupCost};
use crate::space::SearchSpace;
use sf_gpusim::timing::TimingModel;
use std::cell::RefCell;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A small multiply-rotate hasher (the FxHash recipe) for the cache's
/// `[u32]` keys. Not collision-resistant against an adversary — the keys
/// are unit ids the search itself chose — but a few cycles per word.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Costs keyed by sorted member ids followed by the temporal degree.
type CostCache = HashMap<Box<[u32]>, GroupCost, BuildHasherDefault<KeyHasher>>;

thread_local! {
    /// The key under construction, reused across lookups.
    static KEY: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Cache counters of one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)] // fields carry descriptive names; see the type doc
pub struct ProjectionStats {
    pub hits: u64,
    pub misses: u64,
    /// Distinct groups currently cached.
    pub entries: usize,
}

impl ProjectionStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Shared projection state for one search run: the timing model (built once
/// from the device spec) and the memoized group costs.
pub struct ProjectionEngine<'a> {
    space: &'a SearchSpace,
    model: TimingModel,
    cache: Mutex<CostCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// `members` as sorted `u32` ids — the key order.
fn sorted(members: &[usize]) -> Vec<u32> {
    let mut ids: Vec<u32> = members.iter().map(|&m| m as u32).collect();
    ids.sort_unstable();
    ids
}

impl<'a> ProjectionEngine<'a> {
    /// Build the engine (constructs the run's single [`TimingModel`]).
    pub fn new(space: &'a SearchSpace) -> ProjectionEngine<'a> {
        ProjectionEngine {
            space,
            model: TimingModel::new(space.device.clone()),
            cache: Mutex::new(CostCache::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The search space this engine projects for.
    pub fn space(&self) -> &SearchSpace {
        self.space
    }

    /// The shared timing model.
    pub fn model(&self) -> &TimingModel {
        &self.model
    }

    /// The cost of the group at its best temporal degree — the projection
    /// the fitness function sees. For ordinary groups this is the plain
    /// spatial cost; for a whole-loop temporal candidate every eligible
    /// degree is projected (memoized per degree) and the cheapest wins.
    pub fn group_cost(&self, members: &[usize]) -> GroupCost {
        self.best_fold(members).1
    }

    /// Memoized [`group_cost`] at one explicit temporal degree.
    pub fn group_cost_at(&self, members: &[usize], fold: u32) -> GroupCost {
        self.cost_at(&sorted(members), fold)
    }

    /// Scan the identity degree plus every eligible temporal degree for
    /// this group and return the winner — deterministic argmin on projected
    /// time, ties broken toward the *smallest* degree (so the identity is
    /// never displaced without a strict improvement).
    pub fn best_fold(&self, members: &[usize]) -> (u32, GroupCost) {
        self.best_fold_sorted(&sorted(members))
    }

    /// [`ProjectionEngine::group_cost`] of ascending, distinct `members`.
    pub(crate) fn group_cost_sorted(&self, members: &[u32]) -> GroupCost {
        self.best_fold_sorted(members).1
    }

    /// [`ProjectionEngine::best_fold`] of ascending, distinct `members`.
    pub(crate) fn best_fold_sorted(&self, members: &[u32]) -> (u32, GroupCost) {
        let mut best = (1u32, self.cost_at(members, 1));
        let space = self.space;
        if let Some(li) = space.temporal_loop(members.len(), members.iter().map(|&m| m as usize)) {
            // A candidate held together only by the temporal exemption —
            // it carries an intra-group hard edge — has no legal spatial
            // identity: at degree 1 codegen would be asked to fuse across
            // a loop-carried anti dependence and reject. Price the
            // identity as infinite so a group whose every eligible degree
            // is also illegal (geometry or shared memory) never wins.
            // The group is exactly the loop's units, so whether such an
            // edge exists is a property of the loop, known since the
            // space was built.
            if space.loop_has_hard_edge(li) {
                best.1.time_us = f64::INFINITY;
            }
            for t in space.temporal_degrees(li) {
                let cost = self.cost_at(members, t);
                if cost.time_us < best.1.time_us {
                    best = (t, cost);
                }
            }
        }
        best
    }

    /// The memoized cost of ascending `members` at degree `fold`.
    ///
    /// A miss is projected outside the lock, so two island threads may
    /// project the same group at once; whichever inserts first counts the
    /// miss and the other counts a hit. Hits and misses are therefore
    /// exact at any thread count: misses equal the distinct keys, and hits
    /// plus misses equal the lookups.
    fn cost_at(&self, members: &[u32], fold: u32) -> GroupCost {
        KEY.with(|key| {
            let mut key = key.borrow_mut();
            key.clear();
            key.extend_from_slice(members);
            key.push(fold);
            if let Some(&cost) = self
                .cache
                .lock()
                .expect("projection cache")
                .get(key.as_slice())
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return cost;
            }
            let units: Vec<usize> = members.iter().map(|&m| m as usize).collect();
            let cost = group_cost(self.space, &units, &self.model, fold);
            match self
                .cache
                .lock()
                .expect("projection cache")
                .entry(key.as_slice().into())
            {
                Entry::Vacant(slot) => {
                    slot.insert(cost);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    cost
                }
                Entry::Occupied(won) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    *won.get()
                }
            }
        })
    }

    /// Current cache counters.
    pub fn stats(&self) -> ProjectionStats {
        ProjectionStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.cache.lock().expect("projection cache").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::tests::space_for;

    const TRIO: &str = r#"
__global__ void t1(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void t2(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] + 1.0; } }
}
__global__ void t3(const double* __restrict__ u, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = u[k][j][i] - 1.0; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 16;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  t1<<<dim3(4, 4), dim3(16, 8)>>>(u, a, nx, ny, nz);
  t2<<<dim3(4, 4), dim3(16, 8)>>>(u, b, nx, ny, nz);
  t3<<<dim3(4, 4), dim3(16, 8)>>>(u, c, nx, ny, nz);
}
"#;

    #[test]
    fn cache_hits_repeat_lookups_and_matches_direct_costs() {
        let space = space_for(TRIO);
        let engine = ProjectionEngine::new(&space);
        let direct = group_cost(&space, &[0, 1], engine.model(), 1);
        let first = engine.group_cost(&[0, 1]);
        let second = engine.group_cost(&[0, 1]);
        assert_eq!(first, direct);
        assert_eq!(second, direct);
        let s = engine.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn key_is_order_insensitive() {
        let space = space_for(TRIO);
        let engine = ProjectionEngine::new(&space);
        let a = engine.group_cost(&[0, 1]);
        let b = engine.group_cost(&[1, 0]);
        assert_eq!(a, b);
        assert_eq!(engine.stats().entries, 1);
    }

    #[test]
    fn mutated_groups_never_reuse_stale_costs() {
        let space = space_for(TRIO);
        let engine = ProjectionEngine::new(&space);
        // Seed the cache with the fused pair.
        engine.group_cost(&[0, 1]);
        // "Mutate" the group four ways; each variant must be projected
        // fresh (a different key, hence a cache miss) and must match the
        // direct uncached computation exactly.
        for members in [vec![0], vec![1], vec![0, 2], vec![0, 1, 2]] {
            let got = engine.group_cost(&members);
            let want = group_cost(&space, &members, engine.model(), 1);
            assert_eq!(got, want, "members {members:?}");
        }
        let s = engine.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 5);
        assert_eq!(s.entries, 5);
    }

    #[test]
    fn hit_rate_reflects_traffic() {
        let space = space_for(TRIO);
        let engine = ProjectionEngine::new(&space);
        assert_eq!(engine.stats().hit_rate(), 0.0);
        engine.group_cost(&[0]);
        for _ in 0..9 {
            engine.group_cost(&[0]);
        }
        let s = engine.stats();
        assert!((s.hit_rate() - 0.9).abs() < 1e-12, "{s:?}");
    }

    #[test]
    fn counters_are_exact_when_threads_race_on_the_same_keys() {
        let space = space_for(TRIO);
        let engine = ProjectionEngine::new(&space);
        let keys: Vec<Vec<usize>> = vec![
            vec![0],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![1, 2],
            vec![0, 2],
            vec![0, 1, 2],
        ];
        let rounds = 50;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..rounds {
                        for k in &keys {
                            for fold in [1, 2] {
                                engine.group_cost_at(k, fold);
                            }
                        }
                    }
                });
            }
        });
        let s = engine.stats();
        let distinct = keys.len() as u64 * 2;
        assert_eq!(s.misses, distinct, "{s:?}");
        assert_eq!(s.hits + s.misses, 2 * rounds * distinct, "{s:?}");
        assert_eq!(s.entries as u64, distinct);
    }

    #[test]
    fn key_hasher_separates_member_sets_and_degrees() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<KeyHasher>::default();
        let h = |k: &[u32]| build.hash_one(k);
        assert_ne!(h(&[0, 1, 1]), h(&[0, 1, 2]));
        assert_ne!(h(&[0, 1, 1]), h(&[1, 0, 1]));
        assert_ne!(h(&[0, 1]), h(&[0, 1, 0]));
        // A boxed key hashes like the borrowed slice it is probed with.
        let boxed: Box<[u32]> = vec![3, 4, 1].into();
        assert_eq!(build.hash_one(&boxed), h(&[3, 4, 1]));
    }
}
