#!/usr/bin/env python3
"""The stencilfuse benchmark: compile workloads against the release
`sfc`/`sfd` binaries, with an optional traced per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-apps --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The command builds `sfc`, `sfd` and the benchmark's own helper
(`perfbench/tracer`) in release mode, makes the workload's inputs from the
seed, and measures whole passes over the workload's requests until
`--seconds` have elapsed (at least one pass). With `--trace 0` it prints
the end-to-end metrics; with `--trace 1` it then compiles the same requests
once more through the helper, which calls each layer's entry point itself
and records one span per call, and prints the per-layer metrics. The last
line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. A full record with the
host and provenance block is written to `.perfbench/results/`.

Every request's output is checked: a compile must exit 0 with a passing
verification, a cache hit must emit the bytes of that program's cold
compile, every program's output must equal what earlier runs of the same
binaries emitted for it, and every traced request must emit the untraced
binary's program and plan byte for byte.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

DEVICE = "k20x"
MAX_TEMPORAL = "4"
JOBS = 2  # this host's core count; no run uses more compiler threads
APPS = ["scale-les", "homme", "fluam", "mitgcm", "awp-odc", "bcalm", "mitgcm-ts", "scale-les-ts"]
GENERATED = 96  # sf_fuzz programs per batch-mixed draw; half are pre-published
# sfd hands each of its JOBS workers one contiguous half of the batch. Each
# half opens with four analogs in a fixed order, chosen so the halves take
# about equal compile time; the seeded generated programs follow. Were the
# analogs shuffled in, the draw would decide how the load splits between
# the workers and which programs overlap in time, and with them the batch's
# wall time and sfd's peak memory.
APP_HALVES = (["scale-les", "homme", "bcalm", "scale-les-ts"],
              ["fluam", "awp-odc", "mitgcm", "mitgcm-ts"])

# Each workload, with the reason it was chosen.
WORKLOADS = {
    "cold-apps": "the eight analogs compiled cold by sfc, one at a time (closed loop, one "
    "client, no cache): search dominates the paper apps, the interpreter the temporal pair",
    "warm-apps": "the eight analogs through sfc --cache-dir against a primed store, all hits: "
    "search does no work, so interpreter and cache reads are nearly all of a request",
    "batch-mixed": "one sfd --jobs 2 batch of seeded sf_fuzz programs plus the analogs, a seeded "
    "half of the generated pre-published: the only concurrent workload and the only one "
    "with cache writes, and its small programs have a tiny projection working set",
}

# name -> (unit, better, model): `model` marks a deterministic model output
# that must never be reported as a measurement.
END_TO_END = {
    "setup_s": ("s", "lower", False),
    "plans_per_s": ("plans/s", "higher", False),
    "request_p50_s": ("s", "lower", False),
    "cpu_s_per_plan": ("s", "lower", False),
    "peak_rss_mb": ("MB", "lower", False),
    "projected_speedup_geomean": ("x", "higher", True),
}
PER_LAYER = {
    "search.run_s": "s",
    "search.ns_per_eval": "ns",
    "search.evaluations": "count",
    "search.projection_hits": "count",
    "search.projection_misses": "count",
    "search.space_s": "s",
    "gpusim.profile_s": "s",
    "gpusim.reprofile_s": "s",
    "core.verify_s": "s",
    "core.verify_interp_steps": "count",
    "core.verify_heap_bytes": "bytes",
    "codegen.transform_s": "s",
    "codegen.new_kernels": "count",
    "codegen.degradations": "count",
    "cache.lookup_s": "s",
    "cache.publish_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "core.batch_worker_utilization": "ratio",
    "minicuda.parse_s": "s",
    "analysis.filter_s": "s",
    "analysis.targets": "count",
    "graphs.build_s": "s",
    "core.kept_original": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}
# Counters that must repeat exactly for the same code and seed.
DETERMINISTIC = [
    "search.evaluations",
    "search.projection_hits",
    "search.projection_misses",
    "core.verify_interp_steps",
    "codegen.new_kernels",
    "codegen.degradations",
    "cache.hits",
    "cache.misses",
    "core.kept_original",
]


# One timed pass over a workload's requests: its wall and compiler CPU
# seconds, largest compiler resident set (MB), completed requests, their
# modelled speedups, and the directory holding their outputs.
Pass = collections.namedtuple("Pass", "wall cpu rss completed speedups out")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Build the binaries from source; return the release directory."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "stencilfuse", "--bin", "sfc", "--bin", "sfd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(root, "perfbench", "tracer", "Cargo.toml")],
    ):
        subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, check=True)
    return os.path.join(target, "release")


def spawn(argv, scratch):
    """Run one process to its end; return (exit code, wall s, cpu s, peak rss MB, stderr).
    Its stderr goes through a file in `scratch`, so nothing is written outside the checkout."""
    with tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        try:
            # wait4 gives this child's own CPU time and peak resident set.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stderr


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read(path):
    with open(path, "rb") as f:
        return f.read()


class Checks:
    """Correctness verdicts; every failure names its request."""

    def __init__(self, digest_path, binaries):
        self.failures = []
        self.attempted = 0
        self.digest_path = digest_path
        self.binaries = binaries
        self.digests = {}
        if os.path.exists(digest_path):
            with open(digest_path) as f:
                self.digests = json.load(f).get(binaries, {})

    def fail(self, name, why):
        self.failures.append(f"{name}: {why}")

    def same_across_runs(self, name, source_path, output):
        """Each program's output must equal what earlier runs emitted for it."""
        key = sha256_file(source_path)
        digest = hashlib.sha256(output).hexdigest()
        known = self.digests.setdefault(key, digest)
        if known != digest:
            self.fail(name, "output differs from an earlier run of the same binaries")

    def save(self):
        doc = {}
        if os.path.exists(self.digest_path):
            with open(self.digest_path) as f:
                doc = json.load(f)
        doc[self.binaries] = self.digests
        with open(self.digest_path, "w") as f:
            json.dump(doc, f)


class Bench:
    def __init__(self, root, bins, workload, seed, seconds, trace):
        self.bins = bins
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(f"{workload}:{seed}")
        self.work = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        binaries = hashlib.sha256(
            "".join(sha256_file(os.path.join(bins, b)) for b in ("sfc", "sfd")).encode()
        ).hexdigest()
        self.checks = Checks(os.path.join(root, ".perfbench", "digests.json"), binaries)
        self.inputs = os.path.join(self.work, "in")
        self.store = os.path.join(self.work, "primed-store")
        self.references = {}  # program -> (program bytes, plan bytes) of its cold compile
        self.primed = set()  # batch-mixed programs set-up published to the store
        self.requests = []  # program stems, in request order
        self.samples = []  # per-request wall times (sfc workloads)
        self.passes = []  # Pass records, in order

    def spawn(self, argv):
        return spawn(argv, self.work)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def src(self, stem):
        return os.path.join(self.inputs, f"{stem}.cu")

    # ---------------------------------------------------------------- set-up

    def emit(self, gen_seeds):
        shutil.rmtree(self.inputs, ignore_errors=True)
        code, _, _, _, err = self.spawn(
            [os.path.join(self.bins, "perfbench-tracer"), "emit", self.inputs]
            + [str(s) for s in gen_seeds]
        )
        if code != 0:
            raise RuntimeError(f"input emission failed: {err}")

    def sfc_argv(self, stem, out_dir, cache=None):
        argv = [os.path.join(self.bins, "sfc"), self.src(stem), "--device", DEVICE,
                "--max-temporal", MAX_TEMPORAL, "--report",
                "-o", os.path.join(out_dir, f"{stem}.fused.cu"),
                "--emit-plan", os.path.join(out_dir, f"{stem}.plan.json")]
        if cache:
            argv += ["--cache-dir", cache]
        return argv

    def sfd_argv(self, stems, out_dir, cache):
        return [os.path.join(self.bins, "sfd"), "--cache-dir", cache, "--out-dir", out_dir,
                "--jobs", str(JOBS), "--max-temporal", MAX_TEMPORAL, "--report"] + [
            self.src(s) for s in stems]

    def setup(self):
        """Make the inputs from the seed and prime the store. Returns set-up seconds."""
        if self.workload == "cold-apps":
            # Only inputs to make: too quick to time once, so take the median of many.
            times = []
            for _ in range(25):
                start = time.perf_counter()
                self.emit([])
                times.append(time.perf_counter() - start)
            self.requests = self.rng.sample(APPS, len(APPS))
            return statistics.median(times)
        start = time.perf_counter()
        if self.workload == "warm-apps":
            self.emit([])
            self.requests = self.rng.sample(APPS, len(APPS))
            # Prime with the cold-apps compile itself; its outputs are the
            # references every hit must reproduce. One process at a time:
            # opening a store sweeps its tmp/, which can delete the temp file
            # of another process's in-flight publish.
            out = self.path("primed")
            os.makedirs(out)
            for stem in APPS:
                code, _, _, _, err = self.spawn(self.sfc_argv(stem, out, self.store))
                self.check_sfc(stem, code, err)
                if "cache publish failed" in err:
                    self.checks.fail(stem, "priming could not publish its plan")
                self.references[stem] = self.outputs_of(out, stem)
        else:
            gen_seeds = self.rng.sample(range(1, 1 << 32), GENERATED)
            self.emit(gen_seeds)
            generated = [f"gen-{s}" for s in gen_seeds]
            # Each half of the batch: four analogs (misses), then half of the
            # generated programs in seeded order, a seeded half of them
            # pre-published.
            self.requests, primed = [], []
            for i, apps in enumerate(APP_HALVES):
                share = generated[i * GENERATED // 2:(i + 1) * GENERATED // 2]
                primed += self.rng.sample(share, len(share) // 2)
                self.requests += apps + self.rng.sample(share, len(share))
            out = self.path("primed")
            code, _, _, _, err = self.spawn(self.sfd_argv(primed, out, self.store))
            statuses = self.sfd_statuses(err)
            for stem in primed:
                if code != 0 or statuses.get(stem, ("failed",))[0] != "compiled":
                    self.checks.fail(stem, f"pre-publishing failed (exit {code})")
                self.references[stem] = self.outputs_of(out, stem)
            self.primed = set(primed)
        return time.perf_counter() - start

    # ---------------------------------------------------------------- checks

    def outputs_of(self, out_dir, stem):
        prog = os.path.join(out_dir, f"{stem}.fused.cu")
        plan = os.path.join(out_dir, f"{stem}.plan.json")
        if not (os.path.exists(prog) and os.path.exists(plan)):
            return None
        return read(prog), read(plan)

    def check_sfc(self, stem, code, stderr):
        if code != 0:
            self.checks.fail(stem, f"sfc exited {code}")
        # A failed or budget-exhausted verification keeps the original
        # program and exits 0; the degradation line says so.
        elif "kept the original program (verification" in stderr:
            self.checks.fail(stem, "verification did not pass")

    @staticmethod
    def sfd_statuses(stderr):
        """`sfd --report` lines: name -> (status, speedup)."""
        out = {}
        for line in stderr.splitlines():
            if not line.startswith("sfd: ") or " (speedup " not in line:
                continue
            head, _, tail = line[5:].partition(" (speedup ")
            name, _, status = head.rpartition(": ")
            out[name] = (status, float(tail.split("x)")[0]))
        return out

    def check_output(self, stem, outputs):
        if outputs is None:
            self.checks.fail(stem, "no output written")
            return
        ref = self.references.get(stem)
        if ref is not None and ref != outputs:
            self.checks.fail(stem, "output differs from the cold compile of the same program")
        self.references.setdefault(stem, outputs)
        self.checks.same_across_runs(stem, self.src(stem), outputs[0] + b"\0" + outputs[1])

    # ---------------------------------------------------------------- passes

    def fresh_store(self, name):
        dest = self.path(name)
        shutil.rmtree(dest, ignore_errors=True)
        if os.path.exists(self.store):
            shutil.copytree(self.store, dest)
        return dest

    def sfc_pass(self, n):
        out = self.path(f"pass-{n}")
        os.makedirs(out)
        cache = self.fresh_store(f"store-{n}") if self.workload == "warm-apps" else None
        wall = cpu = rss = 0.0
        speedups, completed = [], 0
        for stem in self.requests:
            self.checks.attempted += 1
            code, w, c, r, err = self.spawn(self.sfc_argv(stem, out, cache))
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            self.samples.append(w)
            self.check_sfc(stem, code, err)
            # A warm-apps request must replay its cached plan, not search.
            if cache and "replaying preloaded transform plan" not in err:
                self.checks.fail(stem, "expected a cache hit")
            if code == 0:
                completed += 1
                speedups.append(float(err.rsplit("speedup ", 1)[1].split("x")[0]))
            self.check_output(stem, self.outputs_of(out, stem))
        self.passes.append(Pass(wall, cpu, rss, completed, speedups, out))

    def sfd_pass(self, n):
        out = self.path(f"pass-{n}")
        cache = self.fresh_store(f"store-{n}")
        self.checks.attempted += len(self.requests)
        code, wall, cpu, rss, err = self.spawn(self.sfd_argv(self.requests, out, cache))
        statuses = self.sfd_statuses(err)
        speedups, completed = [], 0
        for stem in self.requests:
            status, speedup = statuses.get(stem, ("missing", 1.0))
            want = "hit" if stem in self.primed else "compiled"
            if status != want:
                self.checks.fail(stem, f"sfd reported `{status}`, expected `{want}` (exit {code})")
            else:
                completed += 1
                speedups.append(speedup)
            self.check_output(stem, self.outputs_of(out, stem))
        self.passes.append(Pass(wall, cpu, rss, completed, speedups, out))

    def measure(self):
        """Whole passes: at least one, then another only while it should
        still end within --seconds, judging by the passes so far."""
        start = time.perf_counter()
        while True:
            n = len(self.passes)
            if self.workload == "batch-mixed":
                self.sfd_pass(n)
            else:
                self.sfc_pass(n)
            elapsed = time.perf_counter() - start
            if elapsed * (n + 2) / (n + 1) > self.seconds:
                break

    def end_to_end(self, setup_s):
        wall = sum(p.wall for p in self.passes)
        cpu = sum(p.cpu for p in self.passes)
        completed = sum(p.completed for p in self.passes)
        speedups = [s for p in self.passes for s in p.speedups]
        if self.workload == "batch-mixed":
            # sfd reports no per-request time: use each batch's worker time
            # per request (wall x jobs / requests), median over batches.
            per_request = [p.wall * JOBS / len(self.requests) for p in self.passes]
        else:
            per_request = self.samples
        return {
            "setup_s": setup_s,
            "plans_per_s": completed / wall,
            "request_p50_s": statistics.median(per_request),
            "cpu_s_per_plan": cpu / max(completed, 1),
            "peak_rss_mb": max(p.rss for p in self.passes),
            "projected_speedup_geomean": math.exp(
                sum(math.log(s) for s in speedups) / max(len(speedups), 1)),
        }, len(per_request)

    # ---------------------------------------------------------------- traced run

    def traced(self):
        """One traced pass over the first pass's requests, checked for fidelity."""
        out = self.path("traced")
        report = self.path("trace.json")
        argv = [os.path.join(self.bins, "perfbench-tracer"), "trace", "--device", DEVICE,
                "--max-temporal", MAX_TEMPORAL, "--out-dir", out, "--report", report]
        if self.workload != "cold-apps":
            argv += ["--cache-dir", self.fresh_store("store-traced")]
        # The traced run is serial: one request at a time, in request order.
        code, _, _, _, err = self.spawn(argv + [self.src(s) for s in self.requests])
        if code != 0:
            raise RuntimeError(f"traced run failed: {err}")
        with open(report) as f:
            doc = json.load(f)
        first = self.passes[0]
        sums, spans_total = {}, 0.0
        for req in doc["requests"]:
            stem = req["name"]
            self.checks.attempted += 1
            if req["status"] == "failed":
                self.checks.fail(stem, f"traced compile failed: {req.get('error')}")
                continue
            if "error" in req:
                self.checks.fail(stem, req["error"])
            if self.outputs_of(out, stem) != self.outputs_of(first.out, stem):
                self.checks.fail(stem, "traced program or plan differs from the untraced binary")
            for span in req["spans"]:
                sums[span["name"]] = sums.get(span["name"], 0.0) + span["dur_s"]
                spans_total += span["dur_s"]
            for name, value in req["counters"].items():
                if name == "core.verify_heap_bytes":
                    sums[name] = max(sums.get(name, 0), value)
                else:
                    sums[name] = sums.get(name, 0) + value
        # The traced run is serial: compare it with the batch's CPU time.
        untraced = first.cpu if self.workload == "batch-mixed" else first.wall
        jobs = JOBS if self.workload == "batch-mixed" else 1
        evals = sums.get("search.evaluations", 0)
        # Span times: the metric `<span>_s` sums the span `<span>`.
        layer = {name: sums.get(name[:-2], 0.0) for name in PER_LAYER if name.endswith("_s")}
        # Counters, as the helper counted them.
        layer.update({name: sums.get(name, 0) for name in PER_LAYER if name not in layer})
        layer.update({
            "search.ns_per_eval": layer["search.run_s"] * 1e9 / evals if evals else 0.0,
            "core.batch_worker_utilization": sum(p.cpu for p in self.passes)
            / (sum(p.wall for p in self.passes) * jobs),
            "trace.coverage": spans_total / doc["wall_s"],
            "trace.overhead_s": doc["wall_s"] - untraced,
        })
        return layer

    # ---------------------------------------------------------------- run

    def run(self):
        setup_s = self.setup()
        self.measure()
        e2e, samples = self.end_to_end(setup_s)
        layer = self.traced() if self.trace else None
        self.checks.save()
        shutil.rmtree(self.work, ignore_errors=True)
        return e2e, samples, layer


def provenance(root, bins, seed):
    def capture(cmd):
        try:
            return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "build_profile": "release",
        # Only in a git checkout: git would otherwise search the parent directories.
        "git_rev": capture(["git", "rev-parse", "HEAD"])
        if os.path.exists(os.path.join(root, ".git")) else None,
        "rustc": capture(["rustc", "--version"]),
        "seed": seed,
        "sfc_sha256": sha256_file(os.path.join(bins, "sfc")),
        "host": platform.platform(),
    }


def run_workload(root, bins, workload, seed, seconds, trace):
    bench = Bench(root, bins, workload, seed, seconds, trace)
    e2e, samples, layer = bench.run()
    checks = bench.checks
    error_rate = len(checks.failures) / max(checks.attempted, 1)
    for failure in checks.failures:
        log(f"FAILED {failure}")
    host = provenance(root, bins, seed)
    print(f"workload {workload} (seed {seed}): {WORKLOADS[workload]}")
    print(f"  host: {json.dumps(host)}")
    for name, value in e2e.items():
        unit, better, model = END_TO_END[name]
        note = " [model, not a measurement]" if model else ""
        extra = f" (n={samples})" if name == "request_p50_s" else ""
        print(f"  {name:<28} {value:>14.6g} {unit:<8} {better} is better{extra}{note}")
    print(f"  {'error_rate':<28} {error_rate:>14.6g} {'ratio':<8} lower is better"
          f" ({len(checks.failures)} of {checks.attempted} requests)")
    if layer:
        for name, value in layer.items():
            print(f"  {name:<28} {value:>14.6g} {PER_LAYER[name]}")
    print(f"  correct: {not checks.failures}")
    record = {
        "workload": workload,
        "why": WORKLOADS[workload],
        "trace": trace,
        "provenance": host,
        "end_to_end": {
            n: {"value": v, "unit": END_TO_END[n][0], "better": END_TO_END[n][1],
                **({"model": True} if END_TO_END[n][2] else {})}
            for n, v in e2e.items()
        },
        "request_p50_samples": samples,
        "error_rate": {"value": error_rate, "unit": "ratio", "better": "lower"},
        "per_layer": {n: {"value": v, "unit": PER_LAYER[n]} for n, v in (layer or {}).items()},
        "failures": checks.failures,
    }
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump(record, f, indent=2)
    metrics = layer if trace else e2e
    units = PER_LAYER if trace else {n: u for n, (u, _, _) in END_TO_END.items()}
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }, record


def self_test(root, bins):
    """Every workload at minimal length, traced twice: every named metric
    must be present with its unit, outputs correct, and the deterministic
    counters identical across the two traced runs."""
    problems = []
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ours = {n: u for n, (u, _, _) in END_TO_END.items()} | PER_LAYER
    if declared != ours:
        problems.append("BENCHMARK.json metrics or units differ from run.py")
    for workload in WORKLOADS:
        records = [run_workload(root, bins, workload, 1, 0, 1)[1] for _ in range(2)]
        for record in records:
            for section, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
                for name in names:
                    unit = ours[name]
                    got = record[section].get(name)
                    if got is None or got["unit"] != unit or not math.isfinite(got["value"]):
                        problems.append(f"{workload}: {name} missing or not in {unit}")
            if record["failures"]:
                problems.append(f"{workload}: {len(record['failures'])} failed request(s)")
        for name in DETERMINISTIC:
            a, b = (r["per_layer"][name]["value"] for r in records)
            if a != b:
                problems.append(f"{workload}: {name} differs between traced runs ({a} vs {b})")
    for p in problems:
        log(f"self-test: {p}")
    log(f"self-test: {'FAILED' if problems else 'passed'}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at minimal length and check the metrics")
    args = parser.parse_args()
    root = os.getcwd()
    try:
        bins = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        sys.exit(1)
    if args.self_test:
        sys.exit(self_test(root, bins))
    if not args.workload:
        parser.error("--workload is required")
    result, _ = run_workload(root, bins, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
