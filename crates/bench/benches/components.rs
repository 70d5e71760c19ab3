//! Criterion micro-benchmarks for the framework components: frontend,
//! static analysis, graph construction, objective evaluation (the paper
//! reports it dominates >90% of its search runtime; in this implementation
//! breeding is the larger share, see DESIGN.md §5.3), GA generations,
//! functional simulation and fusion code generation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sf_apps::{app_by_name, AppConfig};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::printer;
use std::hint::black_box;

fn mitgcm() -> sf_apps::App {
    app_by_name("mitgcm", &AppConfig::test()).expect("known app")
}

fn bench_frontend(c: &mut Criterion) {
    let app = mitgcm();
    let source = printer::print_program(&app.program);
    c.bench_function("minicuda/parse_program", |b| {
        b.iter(|| sf_minicuda::parse_program(black_box(&source)).expect("parses"))
    });
    c.bench_function("minicuda/print_program", |b| {
        b.iter(|| printer::print_program(black_box(&app.program)))
    });
}

fn bench_analysis(c: &mut Criterion) {
    let app = mitgcm();
    let plan = ExecutablePlan::from_program(&app.program).expect("plan");
    let kernel = &app.program.kernels[0];
    c.bench_function("analysis/kernel_access", |b| {
        b.iter(|| sf_analysis::access::KernelAccess::analyze(black_box(kernel)).expect("ok"))
    });
    let ka = sf_analysis::access::KernelAccess::analyze(kernel).expect("ok");
    c.bench_function("analysis/launch_traffic", |b| {
        b.iter(|| {
            sf_analysis::access::launch_traffic(
                black_box(&ka),
                kernel,
                &plan.launches[0],
                &|n| plan.alloc(n).cloned(),
            )
            .expect("ok")
        })
    });
    c.bench_function("analysis/dependence_graph", |b| {
        let fat = app_by_name("awp-odc", &AppConfig::test()).unwrap();
        let k = fat.program.kernel("stress_update").unwrap().clone();
        b.iter(|| sf_analysis::dependence::ArrayDependenceGraph::build(black_box(&k)))
    });
}

fn bench_graphs(c: &mut Criterion) {
    let app = mitgcm();
    let plan = ExecutablePlan::from_program(&app.program).expect("plan");
    let accesses =
        sf_graphs::build::all_accesses_with_allocs(&app.program, &plan).expect("accesses");
    c.bench_function("graphs/ddg_build", |b| {
        b.iter(|| sf_graphs::Ddg::build(black_box(&accesses)))
    });
    let ddg = sf_graphs::Ddg::build(&accesses);
    let names: Vec<String> = plan.launches.iter().map(|l| l.kernel.clone()).collect();
    c.bench_function("graphs/oeg_build", |b| {
        b.iter(|| {
            sf_graphs::Oeg::build(
                black_box(names.clone()),
                &accesses,
                &ddg,
                &plan.transfers,
            )
        })
    });
}

fn search_space() -> sf_search::SearchSpace {
    let app = mitgcm();
    let plan = ExecutablePlan::from_program(&app.program).expect("plan");
    let device = DeviceSpec::k20x();
    let profile = Profiler::analytic(device.clone())
        .profile_with_plan(&app.program, &plan)
        .expect("profile");
    let decisions = sf_analysis::filter::identify_targets(
        &profile.metadata.perf,
        &profile.metadata.ops,
        &profile.metadata.device,
        &sf_analysis::filter::FilterConfig::default(),
    );
    sf_search::SearchSpace::build(&app.program, &plan, &profile, &decisions, device)
        .expect("space")
}

fn bench_search(c: &mut Criterion) {
    let space = search_space();
    let ind = sf_search::Individual::singletons(&space);
    let penalty = sf_search::objective::Penalty::default();
    // The objective function: the paper's dominant search cost. Here a
    // memoized score is cheap, and breeding (feasibility checks on every
    // tentative move) is the larger share of a search; the GA bench below
    // times both together.
    c.bench_function("search/objective_fitness", |b| {
        b.iter(|| sf_search::objective::fitness(black_box(&space), &ind, &penalty))
    });
    c.bench_function("search/ga_30_generations", |b| {
        let cfg = sf_search::SearchConfig {
            population: 16,
            generations: 30,
            stagnation_window: 0,
            ..sf_search::SearchConfig::default()
        };
        b.iter(|| sf_search::search(black_box(&space), &cfg))
    });
}

fn bench_sim_and_codegen(c: &mut Criterion) {
    let app = mitgcm();
    let plan = ExecutablePlan::from_program(&app.program).expect("plan");
    c.bench_function("gpusim/functional_run", |b| {
        b.iter_batched(
            || {
                let mut m = sf_gpusim::GlobalMemory::from_plan(&plan);
                m.seed_all(1);
                m
            },
            |mut mem| {
                let interp = sf_gpusim::Interpreter::new(&app.program);
                interp.run_plan(&plan, &mut mem).expect("runs")
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("gpusim/profile_analytic", |b| {
        b.iter(|| {
            Profiler::analytic(DeviceSpec::k20x())
                .profile_with_plan(black_box(&app.program), &plan)
                .expect("profiles")
        })
    });
    // Fusion codegen on a fixed plan.
    let space = search_space();
    let result = sf_search::search(&space, &sf_search::SearchConfig::quick());
    let tplan = result.plan;
    c.bench_function("codegen/transform_program", |b| {
        b.iter(|| {
            sf_codegen::transform_program(black_box(&app.program), &plan, &tplan).expect("ok")
        })
    });
    c.bench_function("gpusim/occupancy_calculator", |b| {
        let d = DeviceSpec::k20x();
        b.iter(|| {
            for t in [64u32, 128, 256, 512] {
                for r in [16u32, 32, 64, 128] {
                    black_box(sf_gpusim::occupancy::occupancy(&d, t, r, 4096));
                }
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_frontend, bench_analysis, bench_graphs, bench_search, bench_sim_and_codegen
}
criterion_main!(benches);
