"""One benchmark build in a fresh interpreter.

    python3 perfbench/child.py SPEC RESULT TRACE BUILD_DIR

Runs the `sliceforge.cli.main` calls of the workload in SPEC against the
fresh directory BUILD_DIR and writes a JSON result to RESULT: the build's
wall time after imports, the process's peak resident memory, the wall time
of the reference computation (reference.py) run right after the build, the
output checks and, with TRACE=1, the per-layer metrics from the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from reference import pin_to_build_cpu, reference_seconds


def run(spec: dict, trace: bool, build_dir: Path) -> dict:
    import sliceforge.cli as cli

    labels = []  # every label volume the build quantizes, for the label checks
    quantize = cli.quantize

    def capture(*args, **kwargs):
        result = quantize(*args, **kwargs)
        labels.append(result)
        return result

    cli.quantize = capture
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    build_dir.mkdir(parents=True)
    argvs = [[a.replace("{out}", str(build_dir)) for a in argv] for argv in spec["argvs"]]
    calls, error = [], None
    start = time.perf_counter()
    try:
        for argv in argvs:
            t0 = time.perf_counter()
            if tracer:
                with tracer.span(f"cli.{argv[0]}"):
                    rc = cli.main(argv)
            else:
                rc = cli.main(argv)
            calls.append({"command": argv[0], "rc": rc, "s": time.perf_counter() - t0})
            if rc != 0:
                error = f"`sliceforge {argv[0]}` exited {rc}"
                break
    except Exception:  # a crash is a failed build, reported with its traceback
        error = traceback.format_exc()
    build_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    # after the peak is read, so the build ran in a process the harness left alone
    result = {"build_s": build_s, "ref_after_s": reference_seconds(),
              "peak_rss_mb": peak_rss_mb, "calls": calls, "problems": []}
    mismatch = 0.0
    if error is None:
        import checks

        check = spec["check"]
        problems = checks.check_outputs(Path(spec["export_dir"].replace("{out}", str(build_dir))))
        if not labels:
            problems.append("the build quantized no volume")
        for lv in labels:
            if check["kind"] == "digitize":
                problems += checks.check_digitize(lv, check)
            else:
                mismatch, checked = checks.sphere_label_mismatch(lv, check)
                if mismatch > 0:
                    problems.append(f"{mismatch:.3%} of {checked} unambiguous voxels mislabelled")
        result["problems"] = problems
    else:
        result["problems"] = [error]
    result["ok"] = not result["problems"]
    if tracer:
        result["layers"] = tracer.layer_metrics(mismatch)
    return result


def main(argv: list[str]) -> int:
    spec_path, result_path, trace, build_dir = argv
    pin_to_build_cpu()
    spec = json.loads(Path(spec_path).read_text())
    result = run(spec, trace == "1", Path(build_dir))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
