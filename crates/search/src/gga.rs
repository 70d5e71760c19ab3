//! The grouped genetic algorithm (§5.4).
//!
//! Falkenauer-style GGA: chromosomes are partitions; crossover injects
//! whole groups from one parent into the other with repair; mutations
//! merge/split/move at group granularity; fission/defission moves realize
//! the lazy-fission relaxation.
//!
//! The paper puts over 90% of its transform time in objective evaluation
//! and parallelizes it with OpenMP. Here the memoized projection makes a
//! score cheap, and breeding — feasibility checks on every tentative
//! move — was most of a search (about 1.5 s of SCALE-LES's 1.7 s single
//! -threaded) until the dense genome made it cheap too. So one search
//! evaluates serially: spawning threads per generation cost more than it
//! saved. Parallelism lives a level up — in the islands ([`crate::islands`],
//! one spawn per epoch) and in `sfd --jobs`.

use crate::genome::{with_scratch, Individual, Scratch};
use crate::objective::{self, Penalty};
use crate::params::SearchConfig;
use crate::projection::{ProjectionEngine, ProjectionStats};
use crate::space::SearchSpace;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sf_gpusim::isolate::isolated;
use sf_plan::{CodegenMode, GroupPlan, GroupProjection, PrecedenceClass, TransformPlan};
use std::collections::BTreeSet;
use std::time::Instant;

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StopReason {
    /// Ran its full generation schedule.
    Converged,
    /// Watchdog: wall-clock or evaluation budget hit; the best-so-far
    /// individual was returned early.
    BudgetExhausted,
    /// Early stop: best fitness stagnated for `stagnation_window`
    /// generations.
    Plateaued,
}

impl StopReason {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::BudgetExhausted => "budget-exhausted",
            StopReason::Plateaued => "plateaued",
        }
    }
}

/// Fitness assigned to a candidate whose evaluation panicked (after bounded
/// retry): strictly below every real projection (which is >= 0 GFLOPS), so
/// a poisoned candidate can never win but the search carries on.
pub(crate) const POISONED_FITNESS: f64 = -1.0;

/// The outcome of a search run.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct SearchResult {
    pub best: Individual,
    /// The winning grouping lowered to the typed plan IR: groups in
    /// quotient-topological (execution) order, annotated with the
    /// projection's expectations — ready for the code generator.
    pub plan: TransformPlan,
    /// Projection-cache counters for the whole run.
    pub projection: ProjectionStats,
    /// Best fitness per generation.
    pub history: Vec<f64>,
    /// Projected GFLOPS of the all-singletons baseline and of the winner.
    pub baseline_gflops: f64,
    pub best_gflops: f64,
    /// Average number of fissioned kernels retained in the generation-best
    /// individual (the Table 1 "avg fissions per generation" analog: how
    /// actively the winning lineage uses fission).
    pub fissions_per_generation: f64,
    /// Raw fission moves applied across all offspring, per generation
    /// (churn, including moves selection later discards).
    pub fission_moves_per_generation: f64,
    pub generations_run: usize,
    pub evaluations: u64,
    /// Why the run ended.
    pub stop_reason: StopReason,
    /// Candidates whose evaluation panicked and, after bounded retry, were
    /// scored with [`POISONED_FITNESS`] instead of aborting the search.
    pub poisoned_evaluations: u64,
}

/// Run the search.
pub fn search(space: &SearchSpace, config: &SearchConfig) -> SearchResult {
    search_with_faults(space, config, &BTreeSet::new())
}

/// Run the search with fault injection: evaluations whose global index is in
/// `poison` panic inside the (isolated) objective, exercising the poisoned-
/// candidate path deterministically. Production callers use [`search`].
pub fn search_with_faults(
    space: &SearchSpace,
    config: &SearchConfig,
    poison: &BTreeSet<u64>,
) -> SearchResult {
    search_with_faults_seeded(space, config, poison, &[])
}

/// Run the search with elite seed individuals injected into the initial
/// population — the plan-port path: a plan lowered on one device is raised
/// to a genome and planted here, so the search starts from a known-good
/// grouping instead of from scratch. Seeds that are infeasible in this
/// space (or duplicates) are skipped; the remainder of the population is
/// filled exactly like an unseeded run, so determinism per
/// (seed, device, seeds) is preserved.
pub fn search_seeded(
    space: &SearchSpace,
    config: &SearchConfig,
    seeds: &[Individual],
) -> SearchResult {
    search_with_faults_seeded(space, config, &BTreeSet::new(), seeds)
}

/// [`search_seeded`] with fault injection (see [`search_with_faults`]).
pub fn search_with_faults_seeded(
    space: &SearchSpace,
    config: &SearchConfig,
    poison: &BTreeSet<u64>,
    seeds: &[Individual],
) -> SearchResult {
    let started = Instant::now();
    // The temporal ceiling lives on the space (feasibility and projection
    // both consult it); stamp the configured value before anything reads
    // it. At the default of 1 the space is untouched — the temporal
    // dimension vanishes and the run is identical to a pre-temporal one.
    let stamped;
    let space = if space.max_temporal == config.max_temporal {
        space
    } else {
        stamped = SearchSpace {
            max_temporal: config.max_temporal,
            ..space.clone()
        };
        &stamped
    };
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let penalty = Penalty {
        soft: config.penalty_soft,
        hard: config.penalty_hard,
        ..Penalty::default()
    };
    let eligible = space.eligible_originals();
    // One projection engine for the whole run: the timing model is built
    // once, and group costs are memoized across individuals/generations.
    let engine = ProjectionEngine::new(space);

    // ---- initial population ----
    let singles = Individual::singletons(space);
    // The baseline is isolated like any other evaluation; a poisoned
    // baseline scores 0 (no projection improvement claimed over it).
    let baseline_gflops =
        isolated(|| objective::fitness_with(&engine, &singles, &penalty)).unwrap_or(0.0);
    let mut population: Vec<Individual> = Vec::with_capacity(config.population);
    population.push(singles.clone());
    // Elite injection: feasible, non-duplicate seeds enter ahead of the
    // random fill (never displacing the all-singletons baseline).
    for seed in seeds {
        if population.len() >= config.population {
            break;
        }
        if seed.feasible(space) && !population.contains(seed) {
            population.push(seed.clone());
        }
    }
    while population.len() < config.population {
        let mut ind = singles.clone();
        for _ in 0..config.init_merges {
            mutate_merge(space, &mut ind, &eligible, &mut rng);
        }
        population.push(ind);
    }

    let mut evaluations = 0u64;
    let mut poisoned = 0u64;
    let eval = |population: &[Individual], evaluations: &mut u64, poisoned: &mut u64| {
        evaluate(
            &engine,
            population,
            &penalty,
            evaluations,
            poison,
            config.eval_retries,
            poisoned,
        )
    };
    let mut scores: Vec<f64> = eval(&population, &mut evaluations, &mut poisoned);
    let mut history = Vec::with_capacity(config.generations);
    let mut fission_moves = 0u64;
    let mut retained_fissions = 0u64;
    let mut best_idx = argmax(&scores);
    let mut stagnant = 0usize;
    let mut generations_run = 0usize;
    let mut stop_reason = StopReason::Converged;

    // Watchdog budgets, checked at generation boundaries only so the
    // trajectory for a given seed is unchanged — just where it stops.
    let out_of_budget = |evaluations: u64| {
        (config.max_wall_ms > 0 && started.elapsed().as_millis() as u64 >= config.max_wall_ms)
            || (config.max_evaluations > 0 && evaluations >= config.max_evaluations)
    };

    for _gen in 0..config.generations {
        if out_of_budget(evaluations) {
            stop_reason = StopReason::BudgetExhausted;
            break;
        }
        generations_run += 1;
        let prev_best = scores[best_idx];

        // Elites survive unchanged.
        let mut order: Vec<usize> = (0..population.len()).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite fitness"));
        let mut next: Vec<Individual> = order
            .iter()
            .take(config.elites.min(population.len()))
            .map(|&i| population[i].clone())
            .collect();

        while next.len() < config.population {
            next.push(breed(
                &engine,
                config,
                &eligible,
                &population,
                &scores,
                &mut rng,
                &mut fission_moves,
            ));
        }
        population = next;
        scores = eval(&population, &mut evaluations, &mut poisoned);
        best_idx = argmax(&scores);
        history.push(scores[best_idx]);
        retained_fissions += population[best_idx].fission_count() as u64;

        if config.stagnation_window > 0 {
            if scores[best_idx] <= prev_best + 1e-12 {
                stagnant += 1;
                if stagnant >= config.stagnation_window {
                    stop_reason = StopReason::Plateaued;
                    break;
                }
            } else {
                stagnant = 0;
            }
        }
    }

    let best = population[best_idx].clone();
    let best_gflops = scores[best_idx];
    let mut plan = lower_plan(&engine, &best, config.mode, config.block_tuning);
    plan.projected_gflops = Some(best_gflops);
    SearchResult {
        best,
        plan,
        projection: engine.stats(),
        history,
        baseline_gflops,
        best_gflops,
        fissions_per_generation: retained_fissions as f64 / generations_run.max(1) as f64,
        fission_moves_per_generation: fission_moves as f64 / generations_run.max(1) as f64,
        generations_run,
        evaluations,
        stop_reason,
        poisoned_evaluations: poisoned,
    }
}

/// Lower an individual to the typed [`TransformPlan`] IR: fusion groups in
/// quotient-topological (execution) order, each annotated with what the
/// projection expects of it — precedence class, staged arrays, projected
/// per-group cost — plus the projected end-to-end runtime. The caller
/// stamps `projected_gflops` (the penalized fitness) separately.
pub fn lower_plan(
    engine: &ProjectionEngine<'_>,
    ind: &Individual,
    mode: CodegenMode,
    block_tuning: bool,
) -> TransformPlan {
    let space = engine.space();
    let order = ind
        .topo_order(space)
        .expect("winning individual must be feasible");
    let groups_by_id = ind.groups();
    let groups = order
        .iter()
        .map(|g| {
            let members = &groups_by_id[g];
            // The best temporal degree for this group (1 = no folding) and
            // the cost projected at that degree — the same argmin the
            // fitness function saw, so the plan records the decision the
            // search actually optimized for.
            let (fold, cost) = engine.best_fold(members);
            // Members must be in *execution* order: products carry their
            // parent's seq (unit ids do not reflect host order).
            let mut mrefs: Vec<_> = members.iter().map(|&u| space.units[u].mref).collect();
            mrefs.sort_by_key(|m| (m.seq, m.fission_component));
            let mut gp = GroupPlan::of(mrefs);
            gp.temporal = fold;
            // Any dependence between two members means the fused segments
            // must execute in order. (A hard edge is intra-group only for
            // whole-loop temporal candidates, whose ping-pong anti
            // dependences codegen legalizes with shadow arrays; every other
            // edge is a soft flow/anti dependence handled with staging.)
            gp.precedence = if members.iter().any(|&a| {
                members
                    .iter()
                    .any(|&b| space.edges.contains_key(&(a, b)))
            }) {
                PrecedenceClass::PrecedenceAware
            } else {
                PrecedenceClass::Simple
            };
            gp.staged_arrays = objective::staged_arrays(space, members);
            gp.projection = Some(GroupProjection {
                time_us: cost.time_us,
                flops: cost.flops,
                smem_bytes: cost.smem_bytes as u64,
            });
            gp
        })
        .collect();
    let mut plan = TransformPlan::new(space.device.clone(), mode, block_tuning, groups);
    plan.projected_time_us = Some(objective::projected_time_us_with(engine, ind));
    plan
}

/// Evaluate a population serially, isolating panics per candidate.
///
/// Every evaluation gets a global index (for deterministic fault
/// injection); a candidate whose evaluation panics is retried up to
/// `retries` times after the first pass over the population (fresh
/// indices, so injected transient faults clear), then scored
/// [`POISONED_FITNESS`].
fn evaluate(
    engine: &ProjectionEngine<'_>,
    population: &[Individual],
    penalty: &Penalty,
    evaluations: &mut u64,
    poison: &BTreeSet<u64>,
    retries: u32,
    poisoned: &mut u64,
) -> Vec<f64> {
    let one = |idx: u64, ind: &Individual| -> Result<f64, String> {
        isolated(|| {
            if poison.contains(&idx) {
                panic!("injected poisoned candidate at evaluation {idx}");
            }
            objective::fitness_with(engine, ind, penalty)
        })
    };
    let base = *evaluations;
    *evaluations += population.len() as u64;
    let raw: Vec<Result<f64, String>> = population
        .iter()
        .enumerate()
        .map(|(i, ind)| one(base + i as u64, ind))
        .collect();
    raw.into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Ok(s) => s,
            Err(_) => {
                for _ in 0..retries {
                    let idx = *evaluations;
                    *evaluations += 1;
                    if let Ok(s) = one(idx, &population[i]) {
                        return s;
                    }
                }
                *poisoned += 1;
                POISONED_FITNESS
            }
        })
        .collect()
}

/// Breed one offspring: tournament selection, optional group-injection
/// crossover, then the fixed mutation sequence. The exact draw order is
/// load-bearing — both the serial loop and every island step through this
/// one function, so a given RNG stream always yields the same child.
#[allow(clippy::too_many_arguments)]
pub(crate) fn breed(
    engine: &ProjectionEngine<'_>,
    config: &SearchConfig,
    eligible: &[usize],
    population: &[Individual],
    scores: &[f64],
    rng: &mut SmallRng,
    fission_moves: &mut u64,
) -> Individual {
    let space = engine.space();
    with_scratch(|s| {
        let a = tournament(scores, config.tournament, rng);
        let mut child = if rng.gen_bool(config.crossover_rate) {
            let b = tournament(scores, config.tournament, rng);
            crossover(space, &population[a], &population[b], rng, s)
        } else {
            population[a].clone()
        };
        // Mutations.
        if rng.gen_bool(config.p_merge) {
            merge_in(space, &mut child, eligible, rng, s);
        }
        if rng.gen_bool(config.p_split) {
            mutate_split(space, &mut child, rng, s);
        }
        if rng.gen_bool(config.p_move) {
            mutate_move(space, &mut child, rng, s);
        }
        if config.p_fission > 0.0
            && rng.gen_bool(config.p_fission)
            && mutate_fission(engine, &mut child, rng, s)
        {
            *fission_moves += 1;
        }
        if config.p_defission > 0.0 && rng.gen_bool(config.p_defission) {
            mutate_defission(space, &mut child, rng, s);
        }
        debug_assert!(child.feasible_in(space, s));
        child
    })
}

pub(crate) fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite fitness"))
        .map(|(i, _)| i)
        .expect("non-empty population")
}

fn tournament(scores: &[f64], k: usize, rng: &mut SmallRng) -> usize {
    let mut best = rng.gen_range(0..scores.len());
    for _ in 1..k.max(1) {
        let c = rng.gen_range(0..scores.len());
        if scores[c] > scores[best] {
            best = c;
        }
    }
    best
}

/// A uniformly drawn fusion group (two or more members) of the loaded
/// view, as a slot; `None` without drawing when there is none.
fn pick_fusion_group(s: &Scratch, rng: &mut SmallRng) -> Option<usize> {
    let count = s.view.fusion_slots().count();
    if count == 0 {
        return None;
    }
    s.view.fusion_slots().nth(rng.gen_range(0..count))
}

/// Group-injection crossover: clone A, then try to impose a random fusion
/// group of B onto the clone (re-grouping those members together when
/// every one of them is active and the result stays feasible).
fn crossover(
    space: &SearchSpace,
    a: &Individual,
    b: &Individual,
    rng: &mut SmallRng,
    s: &mut Scratch,
) -> Individual {
    let mut child = a.clone();
    s.view.load(b);
    let Some(k) = pick_fusion_group(s, rng) else {
        return child;
    };
    let mut donor = std::mem::take(&mut s.units);
    donor.clear();
    donor.extend_from_slice(s.view.members(k));
    // All donor members must be active in the child (same fission state).
    if donor.iter().all(|&u| child.is_active(u as usize)) {
        s.saved.clone_from(&child);
        let g = child.fresh_group_id();
        for &u in &donor {
            child.set_group(u as usize, g);
        }
        if !child.feasible_in(space, s) {
            child.clone_from(&s.saved);
        }
    }
    s.units = donor;
    child
}

pub(crate) fn mutate_merge(
    space: &SearchSpace,
    ind: &mut Individual,
    eligible: &[usize],
    rng: &mut SmallRng,
) {
    with_scratch(|s| merge_in(space, ind, eligible, rng, s));
}

/// [`mutate_merge`] in caller-provided scratch.
fn merge_in(
    space: &SearchSpace,
    ind: &mut Individual,
    _eligible: &[usize],
    rng: &mut SmallRng,
    s: &mut Scratch,
) {
    let mut active = std::mem::take(&mut s.units);
    active.clear();
    active.extend(
        ind.assignments()
            .map(|(u, _)| u as u32)
            .filter(|&u| space.units[u as usize].eligible),
    );
    if active.len() >= 2 {
        // A few attempts to find a feasible merge.
        for _ in 0..4 {
            let x = active[rng.gen_range(0..active.len())] as usize;
            let y = active[rng.gen_range(0..active.len())] as usize;
            if x != y && ind.try_merge_in(space, x, y, s) {
                break;
            }
        }
    }
    s.units = active;
}

fn mutate_split(space: &SearchSpace, ind: &mut Individual, rng: &mut SmallRng, s: &mut Scratch) {
    s.view.load(ind);
    let Some(k) = pick_fusion_group(s, rng) else {
        return;
    };
    // Move a random member out into a fresh singleton. Splitting the middle
    // of a flow chain out of its group creates a quotient cycle (the two
    // remaining halves wrap around the singleton), so check and revert.
    let victim = *s.view.members(k).choose(rng).expect("non-empty group") as usize;
    let saved = ind.group(victim).expect("members are active");
    let fresh = ind.fresh_group_id();
    ind.set_group(victim, fresh);
    if !ind.feasible_in(space, s) {
        ind.set_group(victim, saved);
    }
}

fn mutate_move(space: &SearchSpace, ind: &mut Individual, rng: &mut SmallRng, s: &mut Scratch) {
    s.view.load(ind);
    let Some(k) = pick_fusion_group(s, rng) else {
        return;
    };
    let victim = *s.view.members(k).choose(rng).expect("non-empty group") as usize;
    let mut active = std::mem::take(&mut s.units);
    active.clear();
    active.extend(
        ind.assignments()
            .map(|(u, _)| u as u32)
            .filter(|&u| u as usize != victim && space.units[u as usize].eligible),
    );
    if !active.is_empty() {
        let target = active[rng.gen_range(0..active.len())] as usize;
        s.saved.clone_from(ind);
        let fresh = ind.fresh_group_id();
        ind.set_group(victim, fresh);
        if !ind.try_merge_in(space, victim, target, s) {
            ind.clone_from(&s.saved);
        }
    }
    s.units = active;
}

/// The lazy-fission move: preferentially split a member of a group whose
/// shared-memory demand violates the capacity constraint (the dynamic
/// penalty's relaxation); falls back to a random fissionable unit.
fn mutate_fission(
    engine: &ProjectionEngine<'_>,
    ind: &mut Individual,
    rng: &mut SmallRng,
    s: &mut Scratch,
) -> bool {
    let space = engine.space();
    let fissionable = |u: u32| {
        let unit = &space.units[u as usize];
        unit.parent.is_none() && unit.fissionable()
    };
    // Find violating groups first.
    let mut candidates = std::mem::take(&mut s.units);
    candidates.clear();
    s.view.load(ind);
    for k in 0..s.view.len() {
        let members = s.view.members(k);
        if engine.group_cost_sorted(members).smem_violation {
            candidates.extend(members.iter().copied().filter(|&m| fissionable(m)));
        }
    }
    if candidates.is_empty() {
        candidates.extend(
            ind.assignments()
                .map(|(u, _)| u as u32)
                .filter(|&u| fissionable(u)),
        );
    }
    let victim =
        (!candidates.is_empty()).then(|| candidates[rng.gen_range(0..candidates.len())] as usize);
    s.units = candidates;
    let Some(victim) = victim else {
        return false;
    };
    // Remember the victim's group so products can rejoin it.
    let old_group = ind.group(victim);
    s.saved.clone_from(ind);
    ind.fission(space, victim);
    if !ind.feasible_in(space, s) {
        ind.clone_from(&s.saved);
        return false;
    }
    // Try to put each product back into the old group (keeps the locality
    // the group had, minus the separable parts).
    if let Some(g) = old_group {
        let rep = ind.assignments().find(|&(_, gg)| gg == g).map(|(u, _)| u);
        if let Some(rep) = rep {
            for &p in &space.units[victim].products {
                let _ = ind.try_merge_in(space, rep, p, s);
            }
        }
    }
    true
}

fn mutate_defission(
    space: &SearchSpace,
    ind: &mut Individual,
    rng: &mut SmallRng,
    s: &mut Scratch,
) {
    let count = ind.fission_count();
    if count == 0 {
        return;
    }
    let victim = ind
        .fissioned()
        .nth(rng.gen_range(0..count))
        .expect("index within the fission set");
    // Only when all products are singletons (nothing is lost).
    let all_single = space.units[victim].products.iter().all(|&p| {
        let g = ind
            .group(p)
            .expect("products of a fissioned unit are active");
        ind.assignments().filter(|&(_, x)| x == g).count() == 1
    });
    if all_single {
        // The reunified original carries the union of its products' edges,
        // which can re-create a quotient cycle the split avoided — check
        // and revert.
        s.saved.clone_from(ind);
        ind.defission(space, victim);
        if !ind.feasible_in(space, s) {
            ind.clone_from(&s.saved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::tests::space_for;

    const CHAIN4: &str = r#"
__global__ void k1(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void k2(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] + 1.0; } }
}
__global__ void k3(const double* __restrict__ a, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = a[k][j][i] - 3.0; } }
}
__global__ void k4(const double* __restrict__ b, double* d, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { d[k][j][i] = b[k][j][i] * 0.5; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 16;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  k1<<<dim3(4, 4), dim3(16, 8)>>>(u, a, nx, ny, nz);
  k2<<<dim3(4, 4), dim3(16, 8)>>>(u, b, nx, ny, nz);
  k3<<<dim3(4, 4), dim3(16, 8)>>>(a, c, nx, ny, nz);
  k4<<<dim3(4, 4), dim3(16, 8)>>>(b, d, nx, ny, nz);
}
"#;

    #[test]
    fn search_finds_fusions_and_improves_projection() {
        let space = space_for(CHAIN4);
        let result = search(&space, &SearchConfig::quick());
        assert!(result.best_gflops > result.baseline_gflops);
        assert!(!result.best.fusion_groups().is_empty());
        assert!(result.best.feasible(&space));
        assert_eq!(result.history.len(), result.generations_run);
        // The memoized projection must absorb nearly all lookups: a run
        // revisits the same groupings constantly.
        assert!(
            result.projection.hit_rate() > 0.9,
            "cache ineffective: {:?}",
            result.projection
        );
        assert_eq!(result.plan.projected_gflops, Some(result.best_gflops));
        assert!(result.plan.projected_time_us.unwrap() > 0.0);
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let space = space_for(CHAIN4);
        let a = crate::with_threads(1, || search(&space, &SearchConfig::quick()));
        // A rerun, and a run with a second worker thread available: the
        // serial search must not care.
        for threads in [1, 2] {
            let b = crate::with_threads(threads, || search(&space, &SearchConfig::quick()));
            assert_eq!(a.best, b.best, "{threads} threads");
            assert_eq!(a.best_gflops, b.best_gflops, "{threads} threads");
            assert_eq!(a.plan.to_json(), b.plan.to_json(), "{threads} threads");
            assert_eq!(a.evaluations, b.evaluations, "{threads} threads");
            assert_eq!(a.projection, b.projection, "{threads} threads");
        }
        let c = search(
            &space,
            &SearchConfig {
                seed: 7,
                ..SearchConfig::quick()
            },
        );
        // Different seed may differ (not asserted equal), but must be valid.
        assert!(c.best.feasible(&space));
    }

    #[test]
    fn groups_come_out_in_execution_order() {
        let space = space_for(CHAIN4);
        let result = search(&space, &SearchConfig::quick());
        // Every group's members exist; flattened members cover all units
        // exactly once.
        let mut seen = std::collections::BTreeSet::new();
        for g in &result.plan.groups {
            for m in &g.members {
                assert!(seen.insert((m.seq, m.fission_component)));
            }
        }
        // The lowered plan must also pass its own structural validation
        // against the program's launch count (4 kernels in CHAIN4).
        result.plan.validate(4).expect("lowered plan is valid");
        // Every group carries the projection's cost annotation.
        assert!(result.plan.groups.iter().all(|g| g.projection.is_some()));
    }

    #[test]
    fn fission_disabled_means_no_fission_moves() {
        let space = space_for(CHAIN4);
        let result = search(&space, &SearchConfig::quick().without_fission());
        assert_eq!(result.fissions_per_generation, 0.0);
        assert_eq!(result.best.fission_count(), 0);
    }

    #[test]
    fn evaluation_budget_stops_early_with_best_so_far() {
        let space = space_for(CHAIN4);
        let cfg = SearchConfig {
            max_evaluations: 50,
            stagnation_window: 0,
            ..SearchConfig::quick()
        };
        let r = search(&space, &cfg);
        assert_eq!(r.stop_reason, StopReason::BudgetExhausted);
        // population 24: initial batch + two generations overshoot the
        // budget at the next boundary check.
        assert!(r.generations_run < cfg.generations);
        assert!(r.evaluations <= 24 * 3);
        assert!(r.best.feasible(&space));
        assert!(r.best_gflops >= r.baseline_gflops * 0.999);
    }

    #[test]
    fn wall_clock_budget_stops_early() {
        let space = space_for(CHAIN4);
        let cfg = SearchConfig {
            population: 200,
            generations: 100_000,
            stagnation_window: 0,
            max_wall_ms: 5,
            ..SearchConfig::default()
        };
        let r = search(&space, &cfg);
        assert_eq!(r.stop_reason, StopReason::BudgetExhausted);
        assert!(r.generations_run < cfg.generations);
        assert!(r.best.feasible(&space));
    }

    #[test]
    fn generous_budgets_do_not_misfire() {
        let space = space_for(CHAIN4);
        let cfg = SearchConfig {
            max_wall_ms: 3_600_000,
            max_evaluations: 100_000_000,
            ..SearchConfig::quick()
        };
        let r = search(&space, &cfg);
        assert_ne!(r.stop_reason, StopReason::BudgetExhausted);
    }

    #[test]
    fn stagnation_reports_plateaued() {
        let space = space_for(CHAIN4);
        let cfg = SearchConfig {
            stagnation_window: 1,
            ..SearchConfig::quick()
        };
        let r = search(&space, &cfg);
        assert_eq!(r.stop_reason, StopReason::Plateaued);
    }

    #[test]
    fn full_schedule_reports_converged() {
        let space = space_for(CHAIN4);
        let cfg = SearchConfig {
            stagnation_window: 0,
            ..SearchConfig::quick()
        };
        let r = search(&space, &cfg);
        assert_eq!(r.stop_reason, StopReason::Converged);
        assert_eq!(r.generations_run, cfg.generations);
        assert_eq!(r.poisoned_evaluations, 0);
    }

    #[test]
    fn fully_poisoned_search_completes_without_panicking() {
        let space = space_for(CHAIN4);
        // Poison every index any retry could reach: every candidate scores
        // POISONED_FITNESS, yet the search must run to a normal stop.
        let poison: BTreeSet<u64> = (0..20_000).collect();
        let r = search_with_faults(&space, &SearchConfig::quick(), &poison);
        assert!(r.poisoned_evaluations > 0);
        assert!(r.best.feasible(&space));
        assert_eq!(r.history.len(), r.generations_run);
    }

    #[test]
    fn sparse_poison_retries_and_keeps_the_search_on_track() {
        let space = space_for(CHAIN4);
        // A handful of poisoned indices: retries land on fresh indices and
        // succeed, so no candidate ends up poisoned and the outcome matches
        // the clean run.
        let poison: BTreeSet<u64> = [1u64, 7, 13].into_iter().collect();
        let clean = search(&space, &SearchConfig::quick());
        let faulty = search_with_faults(&space, &SearchConfig::quick(), &poison);
        assert_eq!(faulty.poisoned_evaluations, 0);
        assert_eq!(faulty.best, clean.best);
        assert_eq!(faulty.best_gflops, clean.best_gflops);
    }
}

#[cfg(test)]
mod operator_tests {
    use super::*;
    use crate::space::tests::space_for;
    use rand::SeedableRng;

    const PAIRS: &str = r#"
__global__ void p1(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void p2(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] + 1.0; } }
}
__global__ void p3(const double* __restrict__ v, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = v[k][j][i] - 1.0; } }
}
__global__ void p4(const double* __restrict__ v, double* d, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { d[k][j][i] = v[k][j][i] * 0.5; } }
}
void host() {
  int nx = 64; int ny = 16; int nz = 8;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* v = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  p1<<<dim3(4, 2), dim3(16, 8)>>>(u, a, nx, ny, nz);
  p2<<<dim3(4, 2), dim3(16, 8)>>>(u, b, nx, ny, nz);
  p3<<<dim3(4, 2), dim3(16, 8)>>>(v, c, nx, ny, nz);
  p4<<<dim3(4, 2), dim3(16, 8)>>>(v, d, nx, ny, nz);
}
"#;

    #[test]
    fn crossover_transplants_a_donor_group() {
        let space = space_for(PAIRS);
        let mut a = Individual::singletons(&space);
        let mut b = Individual::singletons(&space);
        assert!(b.try_merge(&space, 2, 3)); // donor group {p3, p4}
        let mut rng = SmallRng::seed_from_u64(1);
        let child = with_scratch(|s| crossover(&space, &a, &b, &mut rng, s));
        assert!(child.feasible(&space));
        assert_eq!(child.group(2), child.group(3));
        // Crossover must not disturb unrelated units.
        assert_ne!(child.group(0), child.group(1));
        // And it is not destructive of the recipient's own groups:
        assert!(a.try_merge(&space, 0, 1));
        let child2 = with_scratch(|s| crossover(&space, &a, &b, &mut rng, s));
        assert_eq!(child2.group(0), child2.group(1));
        assert_eq!(child2.group(2), child2.group(3));
    }

    #[test]
    fn merge_mutation_respects_eligibility() {
        let space = space_for(PAIRS);
        let mut ind = Individual::singletons(&space);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            mutate_merge(&space, &mut ind, &space.eligible_originals(), &mut rng);
            assert!(ind.feasible(&space));
        }
        // With 4 eligible independent units, merges must have happened.
        assert!(!ind.fusion_groups().is_empty());
    }

    #[test]
    fn split_mutation_never_leaves_infeasible_state() {
        let space = space_for(PAIRS);
        let mut ind = Individual::singletons(&space);
        assert!(ind.try_merge(&space, 0, 1));
        assert!(ind.try_merge(&space, 2, 3));
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20 {
            with_scratch(|s| mutate_split(&space, &mut ind, &mut rng, s));
            assert!(ind.feasible(&space));
        }
    }
}

#[cfg(test)]
mod temporal_tests {
    use super::*;
    use crate::space::tests::space_for;

    /// A radius-1 Jacobi ping-pong pair inside an 8-iteration host time
    /// loop — the canonical temporal-blocking candidate: loop-carried anti
    /// dependences forbid spatial fusion, shadow-array folding legalizes it.
    const PINGPONG: &str = r#"
__global__ void step_ab(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) {
      b[k][j][i] = 0.2 * (a[k][j][i] + a[k][j][i+1] + a[k][j][i-1] + a[k][j+1][i] + a[k][j-1][i]);
    }
  }
}
__global__ void step_ba(const double* __restrict__ b, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) {
      a[k][j][i] = 0.2 * (b[k][j][i] + b[k][j][i+1] + b[k][j][i-1] + b[k][j+1][i] + b[k][j-1][i]);
    }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 4;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(a);
  cudaMemcpyH2D(b);
  for (int t = 0; t < 8; t++) {
    step_ab<<<dim3(2, 1), dim3(32, 32)>>>(a, b, nx, ny, nz);
    step_ba<<<dim3(2, 1), dim3(32, 32)>>>(b, a, nx, ny, nz);
  }
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(b);
}
"#;

    #[test]
    fn search_discovers_the_temporal_fold() {
        let space = space_for(PINGPONG);
        let config = SearchConfig {
            max_temporal: 4,
            ..SearchConfig::quick()
        };
        let result = search(&space, &config);
        // The ping-pong pair must end up in one whole-loop group with a
        // temporal degree above the identity: the folded projection saves
        // the intermediate round-trip, so the argmin picks it.
        let fused: Vec<_> = result.plan.groups.iter().filter(|g| g.is_fusion()).collect();
        assert_eq!(fused.len(), 1, "groups: {:?}", result.plan.groups);
        assert_eq!(fused[0].members.len(), 2);
        assert!(
            fused[0].temporal >= 2,
            "expected a temporal degree above 1, got {}",
            fused[0].temporal
        );
        // Only ping-pong-divisible degrees are legal for the 8-iteration loop.
        assert!(8 % (2 * fused[0].temporal as u64) == 0);
        result.plan.validate(2).expect("lowered plan validates");
        assert!(result.best_gflops > result.baseline_gflops);
    }

    #[test]
    fn temporal_search_is_deterministic_per_seed() {
        let space = space_for(PINGPONG);
        let config = SearchConfig {
            max_temporal: 4,
            ..SearchConfig::quick()
        };
        let a = search(&space, &config);
        let b = search(&space, &config);
        assert_eq!(a.best, b.best);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.best_gflops, b.best_gflops);
    }

    #[test]
    fn max_temporal_one_keeps_the_pretemporal_schedule() {
        let space = space_for(PINGPONG);
        // With the temporal dimension disabled, the loop-carried hard edge
        // has no exemption: the pair can never fuse, every group stays at
        // the identity degree, and repeated runs agree exactly.
        let a = search(&space, &SearchConfig::quick());
        let b = search(&space, &SearchConfig::quick());
        assert_eq!(a.plan, b.plan);
        assert!(a.plan.groups.iter().all(|g| g.temporal == 1));
        assert!(a.best.fusion_groups().is_empty());
    }

    #[test]
    fn best_fold_prefers_folding_and_respects_geometry() {
        let mut space = space_for(PINGPONG);
        space.max_temporal = 4;
        let engine = ProjectionEngine::new(&space);
        let (fold, cost) = engine.best_fold(&[0, 1]);
        let spatial = engine.group_cost_at(&[0, 1], 1);
        assert!(fold >= 2, "folding must beat the spatial projection");
        assert!(cost.time_us < spatial.time_us);
        // A degree whose accumulated halo exceeds the block projects to
        // infinite time: per-member radius 1, two members, so degree 8
        // would need a 2×(8×2) = 32-wide halo in a 32-wide block.
        space.max_temporal = 16;
        let engine = ProjectionEngine::new(&space);
        let wide = engine.group_cost_at(&[0, 1], 8);
        assert!(wide.time_us.is_infinite());
    }
}
