"""The ehrseq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pipeline|serve_base|serve_replacement \\
        --seed N --seconds 30 --trace 0|1

Run from the root of a checkout. With ``--trace 0`` it prints every
end-to-end metric of BENCHMARK.json (each workload measures each one; the
README says what each means per workload); with ``--trace 1`` a separate
traced run prints every per-layer metric. Each run writes a results file
with the environment, every metric, the output checks and the traced self
times under ``.perfbench/results/``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("pipeline", "serve_base", "serve_replacement")


def blas_info() -> dict:
    """The BLAS numpy loaded, and its thread count read through ctypes."""
    import numpy as np

    np.ones((2, 2)) @ np.ones((2, 2))  # make sure the library is mapped
    info: dict = {"name": None, "library": None, "config": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            info.update(library=path, threads=get_threads())
            if get_config is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                info["config"] = get_config().decode("ascii", "replace")
            return info
    return info


def cpu_ticks() -> dict[str, int]:
    """Machine-wide CPU ticks so far: busy, idle and stolen by the hypervisor."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields
    return {"busy": user + nice + system + irq + softirq, "idle": idle + iowait, "steal": steal}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "machine": platform.machine(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_pipeline(seed: int, trace: bool, work: Path) -> dict:
    out = work / "pipeline.json"
    subprocess.run([sys.executable, str(HERE / "pipeline.py"), "--seed", str(seed),
                    "--dir", str(work), "--trace", str(int(trace)), "--out", str(out)],
                   cwd=ROOT, check=True, timeout=170)
    res = json.loads(out.read_text(encoding="utf-8"))
    n_checks = len(res["checks"])
    res["attempted"] = n_checks
    res["failed"] = sum(not c["ok"] for c in res["checks"].values())
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the 25 req/s step of the serve workloads")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ehrseq" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no ehrseq sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    env = environment()
    ticks = cpu_ticks()
    started = time.time()
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = ROOT / ".perfbench" / "results"
    work.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "pipeline":
            res = run_pipeline(args.seed, bool(args.trace), work)
        else:
            import serve

            res = serve.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, work)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}"
        if args.trace and (work / "spans.jsonl").exists():
            shutil.copy(work / "spans.jsonl", results_dir / f"{args.workload}-spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_ticks = cpu_ticks()
    delta = {k: end_ticks[k] - ticks[k] for k in ticks}
    env["cpu_steal_share"] = delta["steal"] / max(1, sum(delta.values()))
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: float(res["metrics"].get(name, 0.0)) for name in units}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: float(res["metrics"][name]) for name in units}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    correct = all(c["ok"] for c in res["checks"].values())
    attempted, failed = int(res["attempted"]), int(res["failed"])

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "started_unix": started, "wall_s": time.time() - started,
              "environment": env, "metrics": metrics, "failed_ratio": failed / max(attempted, 1),
              "attempted": attempted, "failed": failed, "checks": res["checks"],
              "info": res.get("info", {}), "work": res.get("work", {}),
              "samples": res.get("samples", {}),
              "self_time_s": res.get("self_time_s", {})}
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_ratio':34s} {record['failed_ratio']:14.6g} ratio ({failed} of {attempted})")
    for name, v in record["info"].items():
        if isinstance(v, (int, float)) and not isinstance(v, bool) and name not in metrics:
            print(f"{name:34s} {v:14.6g} (info)")
    for name, c in res["checks"].items():
        print(f"check {name}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
