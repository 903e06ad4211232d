"""sliceforge benchmark: seeded workloads driven through the public CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. The load is a closed loop with one client:
one build at a time, each in a fresh child interpreter (so memory is per
build and nothing is cached between builds), BLAS pinned to one thread,
for S seconds. Each iteration takes SETUP_SAMPLES_PER_BUILD set-up samples
on the build's vCPU, each between two timings of a reference interpreter
start, times the reference computation on that vCPU, then runs the build;
the child times the reference computation again right after its build.
Dividing by reference times (reference.py) cancels the host's speed of the
moment, for `build_rel` and for `setup_s`. After each build, outside its
timer, the child checks the outputs. The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0; with --trace 1 the per-layer metrics of one extra
traced build run after the untraced ones, plus the tracing overhead. The
full record (environment, input hashes, every sample) goes to
.perfbench/results/. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SETUP_SAMPLES_PER_BUILD = 2
# setup_s is reported in seconds on a host where reference.spawn_seconds
# takes this long, about an uncontended vCPU of the host this was written on
SPAWN_NOMINAL_S = 0.1
BUILD_TIMEOUT_S = 150
SETUP_CODE = (
    "import time, sliceforge.cli as c; c.build_parser(); "
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
)
END_TO_END_UNITS = {"build_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
SAMPLE_UNITS = {**END_TO_END_UNITS, "build_s": "s", "ref_s": "s", "setup_raw_s": "s"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def environment(root: Path) -> dict:
    import numpy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def setup_sample(env: dict) -> tuple[float, str | None]:
    """Seconds from spawning a fresh interpreter until `sliceforge.cli` is
    imported and `build_parser()` has returned, and a problem or None. A
    child that fails reports the time until it exited."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - t0) / 1e9, "set-up child timed out"
    if out.returncode != 0:
        return (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - t0) / 1e9, \
            f"set-up child exited {out.returncode}: {out.stderr[-2000:]}"
    return (int(out.stdout.split()[-1]) - t0) / 1e9, None


def measure_setup(env: dict) -> dict:
    """SETUP_SAMPLES_PER_BUILD set-up samples, each between two spawn
    references, then the reference time for the build, all on the build's
    vCPU; the build's child starts right after."""
    cpus = reference.pin_to_build_cpu()
    try:
        spawns, samples = [reference.spawn_seconds(env)], []
        for _ in range(SETUP_SAMPLES_PER_BUILD):
            samples.append(setup_sample(env))
            spawns.append(reference.spawn_seconds(env))
        ref_s = reference.reference_seconds()
    finally:
        os.sched_setaffinity(0, cpus)
    return {"ref_s": ref_s, "setup_s": [s for s, _ in samples],
            "setup_rel": [s / ((a + b) / 2) for (s, _), a, b in zip(samples, spawns, spawns[1:])],
            "problems": [p for _, p in samples if p]}


def run_build(spec_path: Path, work: Path, index: int, trace: bool, env: dict) -> dict:
    """One iteration: set-up samples, then one build in a fresh child."""
    build_dir, result_path, log = (work / f"build-{index}", work / f"result-{index}.json", work / f"build-{index}.log")
    setup = measure_setup(env)
    with open(log, "wb") as out:
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec_path), str(result_path), str(int(trace)), str(build_dir)],
                stdout=out, stderr=subprocess.STDOUT, env=env, timeout=BUILD_TIMEOUT_S,
            )
            returncode = proc.returncode
        except subprocess.TimeoutExpired:
            returncode = None
    if returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
        result["ref_s"] = (setup["ref_s"] + result["ref_after_s"]) / 2
        result["build_rel"] = result["build_s"] / result["ref_s"]
    else:
        tail = log.read_text(errors="replace")[-2000:]
        reason = "timed out" if returncode is None else f"child exited {returncode}"
        result = {"ok": False, "problems": [f"{reason}: {tail}"]}
    # a CLI invocation that cannot even start fails the build it belongs to
    result["problems"] = setup["problems"] + result["problems"]
    result["ok"] = not result["problems"]
    result["ref_before_s"] = setup["ref_s"]
    result["setup_s"], result["setup_rel"] = setup["setup_s"], setup["setup_rel"]
    if result["ok"]:
        log.unlink()
    shutil.rmtree(build_dir, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    return result


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path,
                 tiny: bool = False) -> dict:
    """Run one workload and return its record; see the module docstring."""
    import workloads

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = workloads.prepare(name, seed, work / "inputs", tiny=tiny)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = child_env(root)

    setup_sample(env)  # warm-up: bytecode caches and the page cache, which users also have warm

    builds = []
    start = time.monotonic()
    while not builds or time.monotonic() - start < seconds:
        builds.append(run_build(spec_path, work, len(builds), False, env))
    loop_s = time.monotonic() - start
    traced = run_build(spec_path, work, len(builds), True, env) if trace else None
    shutil.rmtree(work / "inputs", ignore_errors=True)

    every = builds + ([traced] if traced else [])
    timed = [b for b in builds if b["ok"]] or builds  # an all-failed run still reports its times
    failed = sum(not b["ok"] for b in every)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "load": "closed loop, 1 client, 1 build per fresh child process",
        "environment": environment(root),
        "inputs": spec["inputs"],
        "argvs": spec["argvs"],
        "loop_s": loop_s,
        "attempted": len(every),
        "failed": failed,
        "failed_frac": failed / len(every),
        "setup_s": spread([r * SPAWN_NOMINAL_S for b in every for r in b["setup_rel"]]),
        "setup_raw_s": spread([s for b in every for s in b["setup_s"]]),
        **{key: spread([b[key] for b in timed if key in b]) for key in ("build_rel", "build_s", "ref_s", "peak_rss_mb")},
        "builds": [{k: v for k, v in b.items() if k != "layers"} for b in builds],
        "problems": sorted({p for b in every for p in b["problems"]}),
    }
    metrics = {name: (record[name]["median"], unit) for name, unit in END_TO_END_UNITS.items()}
    if traced is not None:
        layers = dict(traced.get("layers", {}))
        untraced_s = record["build_s"]["median"] or traced.get("build_s", 0.0)
        untraced_rel = record["build_rel"]["median"] or traced.get("build_rel", 1.0)
        layers["build_s"] = (untraced_s, "s")
        layers["ref_s"] = (record["ref_s"]["median"], "s")
        layers["setup_raw_s"] = (record["setup_raw_s"]["median"], "s")
        layers["trace.build_s"] = (traced.get("build_s", 0.0), "s")
        layers["trace.overhead_s"] = (traced.get("build_s", 0.0) - untraced_s, "s")
        layers["trace.overhead_frac"] = (traced.get("build_rel", 0.0) / untraced_rel - 1.0, "frac")
        computed_s = layers.get("trace.overhead_computed_s", (0.0, "s"))[0]
        layers["trace.overhead_computed_frac"] = (computed_s / untraced_s if untraced_s else 0.0, "frac")
        layers["failed_frac"] = (record["failed_frac"], "frac")
        record["traced"] = {k: v for k, v in traced.items() if k != "layers"}
        record["layers"] = layers
        metrics = layers
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']}: {record['load']}; "
          f"{len(record['builds'])} builds in {record['loop_s']:.1f} s" + (", +1 traced" if record["trace"] else ""))
    print(f"  env: commit {env['git_commit']} src {env['src_sha256'][:12]} python {env['python']} "
          f"numpy {env['numpy']} nproc {env['nproc']} cpu {env['cpu']}")
    for key, item in record["inputs"].items():
        print(f"  input {key}: {item['file']} {item['bytes']} B sha256 {item['sha256']}")
    for name, unit in SAMPLE_UNITS.items():
        s = record[name]
        if s["median"] is None:
            print(f"  {name:<12} n/a (no build reported one)")
            continue
        q = f"q1 {s['q1']:.4f} q3 {s['q3']:.4f}, " if s["q1"] is not None else ""
        print(f"  {name:<12} {s['median']:.4f} {unit:<5} median ({q}n={s['n']})")
    print(f"  {'failed_frac':<12} {record['failed_frac']:.4f} frac ({record['failed']}/{record['attempted']} builds)")
    for problem in record["problems"]:
        print(f"  problem: {problem.strip().splitlines()[-1]}")
    if record["trace"]:
        for name, (value, unit) in sorted(record["layers"].items()):
            print(f"  {name:<28} {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sliceforge" / "cli.py").is_file():
        print(f"error: {root} holds no src/sliceforge; run from the root of a sliceforge checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(n not in workloads.NAMES for n in names):
        print(f"error: --workload must be one of {', '.join(workloads.NAMES)} or all", file=sys.stderr)
        return 2

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    lines = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), root,
                              root / ".perfbench" / "work" / name)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = results / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}.json"
        path.write_text(json.dumps(record, indent=1))
        report(record)
        print(f"  record: {path.relative_to(root)}")
        lines.append({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        })
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{n}/{k}": v for n, x in zip(names, lines) for k, v in x["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
