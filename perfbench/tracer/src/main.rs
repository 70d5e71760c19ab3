//! `perfbench-tracer` — the benchmark's in-process half.
//!
//! ```sh
//! perfbench-tracer emit DIR [GEN_SEED ...]
//! perfbench-tracer trace --device k20x --max-temporal 4 --out-dir DIR \
//!     --report FILE [--cache-dir DIR] INPUT.cu ...
//! ```
//!
//! `emit` writes the eight application analogs (`<app>.cu`) and one
//! `sf_fuzz` program per generator seed (`gen-<seed>.cu`) into DIR.
//!
//! `trace` compiles each input the way `sfc` does (or `sfd` with a cache
//! directory), but calls every layer's public entry point itself, in
//! pipeline order, and records one span per call plus the layer's
//! counters. It writes `<stem>.fused.cu` and `<stem>.plan.json` beside the
//! report so the caller can check them byte for byte against the untraced
//! binaries, and it never edits program code: the spans live here.

use serde_json::{json, Value};
use sf_analysis::filter::identify_targets;
use sf_cache::{CacheKey, Lookup, PlanStore};
use sf_codegen::TransformPlan;
use sf_core::{Limits, ResourceGovernor, ResourceKind};
use sf_gpusim::profiler::{Profiler, ProgramProfile};
use sf_gpusim::DeviceRegistry;
use sf_graphs::build::all_accesses_with_allocs;
use sf_graphs::{Ddg, Oeg};
use sf_minicuda::host::ExecutablePlan;
use sf_search::SearchSpace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use stencilfuse::{verify_equivalence_governed, PipelineConfig};

/// Spans and counters of one request, in call order.
struct Trace {
    origin: Instant,
    spans: Vec<Value>,
    counters: BTreeMap<&'static str, u64>,
}

impl Trace {
    fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Time `f` as the span `name`; every span's parent is the request.
    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(json!({
            "name": name,
            "start_s": (start - self.origin).as_secs_f64(),
            "dur_s": (end - start).as_secs_f64(),
        }));
        out
    }

    fn count(&mut self, name: &'static str, value: u64) {
        *self.counters.entry(name).or_insert(0) += value;
    }
}

/// What one traced request produced.
struct Compiled {
    status: &'static str,
    output: String,
    plan_json: String,
    /// Why the request failed verification, if it did.
    failure: Option<String>,
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("perfbench-tracer: {msg}");
    std::process::exit(2);
}

/// Compile one request through the layers in pipeline order. Mirrors the
/// default (degrade) path of `Pipeline::run` as `sfd` drives it: a cache
/// hit replays its plan (stages 2–5 skipped) and reports the plan as
/// served, a miss searches and publishes.
fn compile(
    source: &str,
    config: &PipelineConfig,
    store: Option<&PlanStore>,
    tr: &mut Trace,
) -> Result<Compiled, String> {
    let (program, plan) = tr.span("minicuda.parse", || {
        let program = sf_minicuda::parse_program(source).map_err(|e| e.to_string())?;
        let plan = ExecutablePlan::from_program(&program).map_err(|e| e.to_string())?;
        Ok::<_, String>((program, plan))
    })?;

    let (key, cached) = match store {
        Some(store) => tr.span("cache.lookup", || {
            let canonical = sf_minicuda::printer::print_program(&program);
            let key = CacheKey::derive(
                &canonical,
                &config.device.fingerprint(),
                &config.cache_fingerprint(),
            );
            let hit = match store.lookup(&key).map_err(|e| e.to_string())? {
                Lookup::Hit(entry) => Some((
                    TransformPlan::from_json(&entry.payload).map_err(|e| e.to_string())?,
                    entry.payload,
                )),
                Lookup::Miss => None,
                Lookup::Recovered { reason, .. } => {
                    return Err(format!("cache entry quarantined: {reason}"))
                }
            };
            Ok((Some(key), hit))
        })?,
        None => (None, None),
    };
    if store.is_some() {
        tr.count(
            if cached.is_some() {
                "cache.hits"
            } else {
                "cache.misses"
            },
            1,
        );
    }

    let profiler = Profiler::new(config.device.clone());
    let original: ProgramProfile = tr
        .span("gpusim.profile", || {
            profiler.profile_with_plan(&program, &plan)
        })
        .map_err(|e| e.to_string())?;

    let (status, tplan, served) = match cached {
        Some((pplan, payload)) => {
            pplan
                .validate(plan.launches.len())
                .map_err(|e| e.to_string())?;
            if pplan.device_fingerprint != config.device.fingerprint() {
                return Err("cached plan targets another device".into());
            }
            ("hit", pplan, Some(payload))
        }
        None => {
            let metadata = &original.metadata;
            let decisions = tr.span("analysis.filter", || {
                identify_targets(
                    &metadata.perf,
                    &metadata.ops,
                    &metadata.device,
                    &config.filter,
                )
            });
            tr.count(
                "analysis.targets",
                decisions.iter().filter(|d| d.is_target()).count() as u64,
            );
            tr.span("graphs.build", || {
                let accesses = all_accesses_with_allocs(&program, &plan)?;
                let ddg = Ddg::build(&accesses);
                let names = plan.launches.iter().map(|l| l.kernel.clone()).collect();
                let oeg = Oeg::build(names, &accesses, &ddg, &plan.transfers);
                Ok::<_, String>((ddg, oeg))
            })?;
            let search_profile = ProgramProfile {
                metadata: metadata.clone(),
                costs: original.costs.clone(),
                total_runtime_us: original.total_runtime_us,
                hazards: Vec::new(),
            };
            let space = tr
                .span("search.space", || {
                    SearchSpace::build(
                        &program,
                        &plan,
                        &search_profile,
                        &decisions,
                        config.device.clone(),
                    )
                })
                .map_err(|e| e.to_string())?;
            let mut search_cfg = config.search.clone();
            search_cfg.mode = config.mode;
            search_cfg.block_tuning = config.block_tuning;
            let result = tr.span("search.run", || sf_search::search(&space, &search_cfg));
            tr.count("search.evaluations", result.evaluations);
            tr.count("search.projection_hits", result.projection.hits);
            tr.count("search.projection_misses", result.projection.misses);
            ("compiled", result.plan, None)
        }
    };

    // Code generation, re-profiling and verification. Any of them failing
    // walks the pipeline's last rung: keep the original program.
    let transformed = (|| {
        let transform = tr
            .span("codegen.transform", || {
                sf_codegen::transform_program(&program, &plan, &tplan)
            })
            .map_err(|e| e.to_string())?;
        tr.count("codegen.new_kernels", transform.new_kernel_count as u64);
        tr.count("codegen.degradations", transform.degradations.len() as u64);
        let profile = tr
            .span("gpusim.reprofile", || profiler.profile(&transform.program))
            .map_err(|e| e.to_string())?;
        // The benchmark owns this governor: unlimited, so verification
        // behaves exactly as in an ungoverned run, while it still counts
        // the steps and image bytes the verifier charges.
        let governor = ResourceGovernor::process().child(Limits::unlimited());
        let verdict = tr.span("core.verify", || {
            verify_equivalence_governed(&program, &transform.program, 99, &governor)
        });
        tr.count(
            "core.verify_interp_steps",
            governor.used(ResourceKind::InterpreterSteps),
        );
        tr.count(
            "core.verify_heap_bytes",
            governor.high_water(ResourceKind::HeapBytes),
        );
        match verdict {
            Ok(v) if v.passed() => Ok((transform, profile)),
            Ok(v) => Err(format!(
                "verification failed: {}",
                v.failure().unwrap_or_default()
            )),
            Err(e) => Err(format!("verification could not run: {e}")),
        }
    })();

    let (kept, plan_json, failure) = match transformed {
        Ok((transform, profile)) => {
            let json = served.unwrap_or_else(|| transform.plan.to_json());
            // The always-valid rule: a transform modelled slower than the
            // original keeps the original program.
            if profile.total_runtime_us > original.total_runtime_us {
                (program, json, None)
            } else {
                (transform.program, json, None)
            }
        }
        Err(why) => {
            tr.count("core.kept_original", 1);
            let json = served.unwrap_or_else(|| tplan.to_json());
            // Only a verification that ran and failed is a failed request;
            // the other rungs are degradations the pipeline absorbs.
            let failure = why.starts_with("verification").then_some(why);
            (program, json, failure)
        }
    };
    if let (Some(store), Some(key), "compiled") = (store, &key, status) {
        tr.span("cache.publish", || store.publish(key, &plan_json))
            .map_err(|e| e.to_string())?;
    }
    Ok(Compiled {
        status,
        output: sf_minicuda::printer::print_program(&kept),
        plan_json,
        failure,
    })
}

fn emit(args: &[String]) {
    let Some((dir, seeds)) = args.split_first() else {
        fail("usage: perfbench-tracer emit DIR [GEN_SEED ...]");
    };
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(format!("create {}: {e}", dir.display())));
    let write = |name: String, program: &sf_minicuda::Program| {
        let path = dir.join(name);
        std::fs::write(&path, sf_minicuda::printer::print_program(program))
            .unwrap_or_else(|e| fail(format!("write {}: {e}", path.display())));
    };
    let apps = sf_apps::AppConfig::test();
    for name in sf_apps::APP_NAMES {
        let app = sf_apps::app_by_name(name, &apps).expect("APP_NAMES lists known apps");
        write(format!("{name}.cu"), &app.program);
    }
    let gen = sf_fuzz::gen::GenConfig::default();
    for seed in seeds {
        let seed: u64 = seed
            .parse()
            .unwrap_or_else(|_| fail(format!("bad generator seed `{seed}`")));
        write(
            format!("gen-{seed}.cu"),
            &sf_fuzz::gen::generate(seed, &gen).program,
        );
    }
}

fn trace(args: &[String]) {
    let mut device = "k20x".to_string();
    let mut max_temporal = 1u32;
    let mut out_dir: Option<PathBuf> = None;
    let mut report: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut inputs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(format!("missing value for {arg}")))
        };
        match arg.as_str() {
            "--device" => device = value(),
            "--max-temporal" => {
                max_temporal = value()
                    .parse()
                    .unwrap_or_else(|_| fail("bad --max-temporal"))
            }
            "--out-dir" => out_dir = Some(value().into()),
            "--report" => report = Some(value().into()),
            "--cache-dir" => cache_dir = Some(value().into()),
            other if !other.starts_with('-') => inputs.push(PathBuf::from(other)),
            other => fail(format!("unknown argument `{other}`")),
        }
    }
    let (Some(out_dir), Some(report)) = (out_dir, report) else {
        fail("trace needs --out-dir and --report");
    };
    let device = DeviceRegistry::builtin()
        .resolve(&device)
        .unwrap_or_else(|e| fail(e));
    let config = PipelineConfig::automated(device).with_max_temporal(max_temporal);
    let store = cache_dir.map(|d| PlanStore::open(d).unwrap_or_else(|e| fail(e)));
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| fail(e));

    let origin = Instant::now();
    let mut requests = Vec::new();
    for input in &inputs {
        let source = std::fs::read_to_string(input)
            .unwrap_or_else(|e| fail(format!("read {}: {e}", input.display())));
        let stem = input
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let started = Instant::now();
        let mut tr = Trace::new(origin);
        let result = compile(&source, &config, store.as_ref(), &mut tr);
        let wall_s = started.elapsed().as_secs_f64();
        let mut record = json!({
            "name": stem,
            "wall_s": wall_s,
            "spans": tr.spans,
            "counters": tr.counters,
        });
        match result {
            Ok(c) => {
                for (suffix, text) in [(".fused.cu", &c.output), (".plan.json", &c.plan_json)] {
                    let path = out_dir.join(format!("{stem}{suffix}"));
                    std::fs::write(&path, text)
                        .unwrap_or_else(|e| fail(format!("write {}: {e}", path.display())));
                }
                record["status"] = json!(c.status);
                if let Some(why) = c.failure {
                    record["error"] = json!(why);
                }
            }
            Err(e) => {
                record["status"] = json!("failed");
                record["error"] = json!(e);
            }
        }
        requests.push(record);
    }
    let doc = json!({
        "wall_s": origin.elapsed().as_secs_f64(),
        "requests": requests,
    });
    std::fs::write(&report, serde_json::to_string(&doc).expect("serializable"))
        .unwrap_or_else(|e| fail(format!("write {}: {e}", report.display())));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "emit" => emit(rest),
        Some((cmd, rest)) if cmd == "trace" => trace(rest),
        _ => fail("usage: perfbench-tracer emit DIR [GEN_SEED ...] | trace ..."),
    }
}
