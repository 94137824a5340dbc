#!/usr/bin/env python3
"""gexlab benchmark: one workload per run, every operation checked.

Usage (from the repository root):
    python3 gexbench/run.py --workload {cli-session,dp-scan,pde-solve}
                            --seed N --seconds S --trace {0,1}

Inputs come from --seed alone.  The workload runs as a closed loop of whole
operation cycles for about --seconds, then every operation's result is
checked by an independent route.  Every metric is printed by name with its
unit and recorded, together with the environment, in
gexbench_out/<workload>-seed<N>-trace<T>.json.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).

--trace 1 alternates untraced and traced cycles, so the per-layer numbers
come with the tracing overhead measured in the same run, and adds the
import breakdown, the PDE error-against-cost table and kernel numbers.
Run with GEXLAB_THREADS unset or 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "gexbench_out"
SETUP_IMPORTS = 5
MIN_OPS = 11  # so op_s_tail has ten samples beyond it
TAIL_BEYOND = 10


@dataclass
class Record:
    index: int  # position in the cycle
    seconds: float  # wall time
    scaled: float  # wall time rescaled to the probe's nominal speed
    traced: bool
    result: object = None
    error: str | None = None


def _fail(msg: str) -> int:
    print(f"gexbench: {msg}", file=sys.stderr)
    return 2


def time_fresh_import(env: dict) -> float:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import gexlab"], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import gexlab failed: {proc.stderr.decode(errors='replace').strip()[-400:]}")
    return elapsed


def run_loop(cycle, seconds: float, tracer, in_process: bool, env: dict) -> tuple[list[Record], list[float]]:
    """Closed loop over whole cycles.

    Stops at the cycle boundary nearest to ``seconds`` of rescaled
    operation time, once MIN_OPS operations ran, so a run makes the same
    number of operations whatever the host's speed.  With a tracer, cycles
    alternate untraced and traced and the loop ends after a traced one.
    The host's slowness is read before the first and after every
    operation, outside the operations' timing.  Returns the records and
    the slowness readings.
    """
    records: list[Record] = []
    probes = [probe.slowness(env, in_process)]
    measured = 0.0
    t_start = perf_counter()
    cycles = 0
    while True:
        traced = tracer is not None and cycles % 2 == 1
        if traced and in_process:
            tracer.install()
        try:
            for i, op in enumerate(cycle):
                if traced:
                    tracer.op_id = len(records)
                t0 = perf_counter()
                error = None
                result = None
                try:
                    result = op.run(tracer if traced else None)
                except Exception:  # a failed operation is counted, not fatal
                    error = traceback.format_exc(limit=3).strip().splitlines()[-1]
                wall = perf_counter() - t0
                probes.append(probe.slowness(env, in_process))
                scaled = probe.rescale(wall, probes[-2], probes[-1])
                measured += scaled
                records.append(Record(i, wall, scaled, traced, result, error))
        finally:
            if traced and in_process:
                tracer.uninstall()
        cycles += 1
        if tracer is not None and cycles % 2 == 1:
            continue
        if len(records) >= MIN_OPS and measured >= seconds - 0.5 * measured / cycles:
            return records, probes
        if perf_counter() - t_start > 3 * seconds + 60.0:
            return records, probes


def check_all(cycle, records: list[Record]) -> list[str]:
    failures = []
    for n, rec in enumerate(records):
        msg = rec.error
        if msg is None:
            try:
                msg = cycle[rec.index].check(rec.result)
            except Exception:
                msg = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        if msg:
            failures.append(f"op {n} ({cycle[rec.index].label}): {msg}")
    return failures


def timing_metrics(times: list[float]) -> dict:
    times = sorted(times)
    n = len(times)
    if n > TAIL_BEYOND:
        tail, pct = times[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = times[-1], 100.0
    return {"op_s_p50": statistics.median(times), "op_s_tail": tail, "op_s_tail_pct": pct, "op_samples": n}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Per-core cache sizes of cpu0 as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return out or {"unknown": "cache sizes not readable"}


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(args, why: str) -> dict:
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed: one client, one thread, whole operation cycles",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "GEXLAB_BACKEND": os.environ.get("GEXLAB_BACKEND", "<unset>"),
        "GEXLAB_THREADS": os.environ.get("GEXLAB_THREADS", "<unset>"),
        "git_commit": git_commit(),
    }


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s", "s_total")) or "op_s_" in name or name.startswith("gheat.s."):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("flop_computed"):
        return "flop"
    if name.endswith("flop_per_byte_computed"):
        return "flop/B"
    if name.startswith(("gheat.err.", "pde_err", "probe.")) or name.endswith(("share", "coverage", "ratio", "_of_setup")):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("cli-session", "dp-scan", "pde-solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gexlab" / "__init__.py").is_file():
        return _fail(f"no gexlab source tree at {ROOT / 'src' / 'gexlab'}")
    if os.environ.get("GEXLAB_THREADS", "").strip() not in ("", "1"):
        return _fail("run with GEXLAB_THREADS unset or 1; the workloads are single-client")
    sys.path.insert(0, str(ROOT / "src"))

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def declared_metrics() -> dict:
    """The metric lists of BENCHMARK.json: {"end_to_end": {name: unit}, "per_layer": {...}}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def run(args, workdir: Path) -> int:
    in_process = args.workload != "cli-session"
    declared = declared_metrics()
    env = workloads.gexlab_env(ROOT)
    gx = None
    if in_process or args.trace:
        import gexlab as gx  # also warms the bytecode cache before fresh imports are timed

        if Path(gx.__file__).resolve().parent != ROOT / "src" / "gexlab":
            return _fail(f"imported gexlab from {gx.__file__}, not from this checkout")
    record = {"environment": environment(args, workloads.WHY[args.workload])}

    # the setup imports are process start-ups, so only the spawn probe applies
    setup_probes = [probe.slowness(env, in_process=False)]
    imports = []
    for _ in range(SETUP_IMPORTS):
        imports.append(time_fresh_import(env))
        setup_probes.append(probe.slowness(env, in_process=False))
    t0 = perf_counter()
    if args.workload == "cli-session":
        bench = workloads.CliSession(args.seed, ROOT, workdir)
    elif args.workload == "dp-scan":
        bench = workloads.DpScan(args.seed, gx)
    else:
        bench = workloads.PdeSolve(args.seed, gx)
    input_s = perf_counter() - t0
    raw_setup_s = statistics.median(imports) + input_s
    setup_s = statistics.median(
        probe.rescale(t, setup_probes[i], setup_probes[i + 1])
        for i, t in enumerate(imports)
    ) + input_s
    record["setup"] = {"fresh_import_s": imports, "input_generation_s": input_s, "probe_s": setup_probes}

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    records, probes = run_loop(bench.cycle, args.seconds, tracer, in_process, env)
    failures = check_all(bench.cycle, records)

    # times are rescaled to nominal host speed (see probe.py); raw.* keep wall seconds
    plain = [r for r in records if not r.traced]
    plain_s = sum(r.seconds for r in plain)
    scaled_s = sum(r.scaled for r in plain)
    work = sum(bench.cycle[r.index].work(r.result) for r in plain if r.error is None)
    raw_timing = timing_metrics([r.seconds for r in plain])
    timing = timing_metrics([r.scaled for r in plain])
    end_to_end = {
        "setup_s": setup_s,
        "op_s_p50": timing["op_s_p50"],
        "op_s_tail": timing["op_s_tail"],
        "ops_per_s": len(plain) / scaled_s,
        "peak_rss_mb": peak_rss_mb(children=not in_process),
    }
    errors = getattr(bench, "errors", None) or [(0.0, 0.0)]
    workload_metrics = {
        "raw.setup_s": raw_setup_s,
        "raw.op_s_p50": raw_timing["op_s_p50"],
        "raw.op_s_tail": raw_timing["op_s_tail"],
        "raw.ops_per_s": len(plain) / plain_s,
        "probe.setup_slowness": statistics.median(setup_probes),
        "probe.run_slowness": statistics.median(probes),
        "op_s_tail_pct": timing["op_s_tail_pct"],
        "op_samples": timing["op_samples"],
        "op_time_s": scaled_s,
        "dp_updates_per_s": work / scaled_s if args.workload == "dp-scan" else 0.0,
        "pde_node_steps_per_s": work / scaled_s if args.workload == "pde-solve" else 0.0,
        "pde_err_max": max(e for e, _ in errors),
        "pde_err_const_max": max(c for _, c in errors),
    }

    per_layer = {}
    if tracer is not None:
        per_layer, bitwise = layer_metrics(args, gx, env, tracer, records, workload_metrics)
        record["environment"]["kernel_bitwise"] = bitwise
        if bitwise == "DIFFER":
            failures.append("kernels: numpy and numba results differ bitwise")
        per_layer.update(workload_metrics)
        tracer.save(str(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.npz"))
    workload_metrics["failed_ratio"] = len(failures) / len(records)

    kind = "per_layer" if args.trace else "end_to_end"
    measured = {**end_to_end, **workload_metrics, **per_layer}
    reported = {name: measured.get(name, 0.0) for name in declared[kind]}
    record.update(end_to_end=end_to_end, workload=workload_metrics, per_layer=per_layer,
                  attempted=len(records), failed=len(failures), failures=failures[:20],
                  ops=[[bench.cycle[r.index].label, r.seconds, r.scaled, r.traced] for r in records])
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for key, val in record["environment"].items():
        print(f"env.{key} = {val}")
    for name, value in measured.items():
        print(f"{name} = {value!r} {unit_of(name)}")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": declared[kind][name]} for name, value in reported.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(args, gx, env, tracer, records, raw) -> tuple[dict, str]:
    """Per-layer numbers of the traced cycles plus the traced-run tables, in wall seconds."""
    import tables

    traced = [r for r in records if r.traced]
    traced_s = sum(r.seconds for r in traced)
    out = tracer.aggregate()
    for name in [n for n in out if n.startswith("layer.") and n.endswith(".self_s")]:
        out[name[: -len(".self_s")] + ".share"] = out[name] / traced_s
    for kernel in ("kernels.dp_step", "kernels.gheat_march"):
        out[f"{kernel}.share"] = out.get(f"{kernel}.self_s", 0.0) / traced_s
    out["trace.coverage"] = out.get("trace.self_s_total", 0.0) / traced_s
    traced_p50 = statistics.median(r.seconds for r in traced)
    out["trace.op_s_p50"] = traced_p50
    out["trace.untraced_op_s_p50"] = raw["raw.op_s_p50"]
    out["trace.overhead_s"] = traced_p50 - raw["raw.op_s_p50"]
    out.update(tables.import_breakdown(ROOT, env))
    out["import.scipy_share_of_setup"] = out["import.scipy_s"] / raw["raw.setup_s"]
    out.update(tables.pde_error_table(gx))
    kernel_out, bitwise = tables.kernel_numbers(gx._kernels, args.seed)
    out.update(kernel_out)
    return out, bitwise


if __name__ == "__main__":
    sys.exit(main())
