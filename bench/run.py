"""boundarykit benchmark: one workload per run, closed loop, one task at a time.

    python3 bench/run.py --workload desk20k --seed 1 --seconds 10 --trace 0

It imports the package from ``src/`` of the checkout it sits in; there is
nothing to build.  A run sets up, then runs tasks one after another (one
client, closed loop) until ``--seconds`` have passed, always finishing the
task it is in.  It then checks every task's outputs.  With ``--trace 1``
the tasks run with spans around every call into the package, and each
layer is then probed once.  The lines it prints name every figure with
its unit; the last line is one JSON object with the keys correct,
attempted, failed and metrics, the metrics being the ``end_to_end``
(``--trace 0``) or ``per_layer`` (``--trace 1``) names of BENCHMARK.json.
Task and set-up times are gated on the CPU clock (``cpu_seconds``), which
the hypervisor's steal does not inflate; wall times are printed and
recorded beside them.  The run record, with every task's raw times, goes
to ``bench/results/``.
``--size smoke`` shrinks every input so a run takes seconds.  See
bench/README.md.

Only the standard library is imported at the top, so that the set-up time
includes importing numpy, scipy and the package.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from sizes import NETWORK_OF, SIZES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 3
THREAD_ENV = ("BOUNDARYKIT_WORKERS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def use_src():
    """Put the checkout's ``src/`` first on the import path, or exit."""
    if not (SRC / "boundarykit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'boundarykit'}")
    sys.path.insert(0, str(SRC))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cpu_seconds():
    """CPU seconds so far of this process (all threads) and its waited-for children.

    A kernel built with CONFIG_PARAVIRT_TIME_ACCOUNTING keeps steal out of
    it: time the hypervisor gives to other machines is charged to no process
    here, while it does add to wall time.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def setup(workload, size, workdir):
    """What a run pays before its first task: import, region, sigma, region file.

    Returns the wall and CPU seconds it took, and the region.
    """
    t0, c0 = time.perf_counter(), cpu_seconds()
    import boundarykit as bk
    _, side, hole = SIZES[size][NETWORK_OF[workload]]
    region = bk.square_with_hole(side, hole)
    bk.sigma_interior()
    bk.save_region(region, workdir / "region.txt")
    return time.perf_counter() - t0, cpu_seconds() - c0, region


def setup_in_child(args, workdir):
    """Wall and CPU seconds of one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-child", args.workload, args.size, str(workdir)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120, check=True)
    wall, cpu = proc.stdout.split()[-2:]
    return float(wall), float(cpu)


@dataclass
class Task:
    label: int
    seed: int
    seconds: float
    cpu: float
    inputs: dict
    out: object
    error: str | None


def task_seed(seed, index):
    """Network seed of the ``index``-th task of a run with workload seed ``seed``."""
    return seed * 1000 + index


def run_task(wl, tracer, label, seed):
    inputs = wl.prepare(seed)
    tracer.task = label
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        out, error = tracer.call("task", wl.task, inputs), None
    except Exception as e:  # a task that raises counts as failed
        out, error = None, f"{type(e).__name__}: {e}"
    return Task(label, seed, time.perf_counter() - t0, cpu_seconds() - c0, inputs, out, error)


def check_task(wl, task, check_failed):
    if task.error is not None:
        return
    try:
        wl.check(task.inputs, task.out)
    except check_failed as e:
        task.error = f"check failed: {e}"
    except Exception as e:  # a check that cannot run fails the task too
        task.error = f"check raised {type(e).__name__}: {e}"


def peak_rss_mb(children):
    """Peak RSS so far: of this process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def host_steal_s():
    """CPU seconds the hypervisor gave to others, summed over this machine's CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256():
    """Digest of the package source, which identifies the code outside git too."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args):
    import numpy
    import scipy
    from boundarykit.centrality import resolve_workers
    return {
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "clients": 1, "loop": "closed",
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "workers": resolve_workers(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def measure(args, spec, workdir):
    *first, region = setup(args.workload, args.size, workdir)
    setup_s = [tuple(first)]
    import boundarykit
    if Path(boundarykit.__file__).resolve().parent != SRC / "boundarykit":
        raise SystemExit(f"bench: imported boundarykit from {boundarykit.__file__}")
    setup_s += [setup_in_child(args, workdir) for _ in range(SETUP_SAMPLES - 1)]

    import workloads
    from tracer import Tracer, seconds_per_span
    tracer = Tracer()
    wl = workloads.WORKLOADS[args.workload](args.size, region, workdir, tracer, child_env())
    print(f"workload={args.workload} size={args.size} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}: one client, closed loop", flush=True)

    tracer.enabled = bool(args.trace)
    tasks = []
    steal0 = host_steal_s()
    start = time.perf_counter()
    while not tasks or time.perf_counter() - start < args.seconds:
        tasks.append(run_task(wl, tracer, len(tasks), task_seed(args.seed, len(tasks))))
    steal = host_steal_s() - steal0
    rss = peak_rss_mb(wl.work_in_children)

    tracer.task = "check"
    for t in tasks:
        check_task(wl, t, workloads.CheckFailed)
        print(f"task {t.label}: seed={t.seed} {t.seconds:.4f} s wall, {t.cpu:.4f} s CPU "
              f"{'ok' if t.error is None else 'FAILED ' + t.error}", flush=True)

    good = [t for t in tasks if t.error is None]
    timed = good or tasks
    task_s = statistics.median(t.seconds for t in timed)
    figures = {
        "task_cpu_s": (statistics.median(t.cpu for t in timed), "s"),
        "setup_s": (statistics.median(cpu for _, cpu in setup_s), "s"),
        "setup_wall_s": (statistics.median(wall for wall, _ in setup_s), "s"),
        "task_s": (task_s, "s"),
        wl.alias: (task_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "error_rate": (sum(t.error is not None for t in tasks) / len(tasks), "fraction"),
        "host_steal_s": (steal, "s"),
    }
    if good:
        figures.update((name, (v, unit)) for name, v, unit in wl.extras([t.out for t in good]))
    first = tasks[0]
    if args.trace and first.error is None:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = workloads.layer_metrics(wl, first.seed, wl.layer_state(first.inputs, first.out))
        spans = sum(s.task == 0 for s in tracer.spans)
        layers["trace.task_s"] = first.seconds
        layers["trace.overhead_s"] = spans * seconds_per_span()
        figures.update((k, (v, units[k])) for k, v in layers.items())

    print(f"{len(timed)} task(s) timed; timings are medians over them")
    for name, (value, unit) in figures.items():
        print(f"{name} = {value:.6g} {unit}")
    spans = tracer.to_records()
    self_by_name = {}
    for s in spans:
        if s["task"] == 0:
            self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + s["self"]
    for name, secs in sorted(self_by_name.items(), key=lambda kv: -kv[1]):
        print(f"self time in task 0: {name} = {secs:.6g} s")

    write_record(args, setup_s, tasks, figures, spans)
    print_result(spec["per_layer"] if args.trace else spec["end_to_end"], figures, tasks)
    return 0


def write_record(args, setup_s, tasks, figures, spans):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "record": run_record(args),
        "setup_s": [{"wall": wall, "cpu": cpu} for wall, cpu in setup_s],
        "tasks": [{"label": t.label, "seed": t.seed, "seconds": t.seconds, "cpu": t.cpu,
                   "error": t.error,
                   "parts": t.out.get("times") if t.out else None} for t in tasks],
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "spans": spans,
    }
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(f"run record: {path.relative_to(ROOT)}")


def print_result(declared, figures, tasks):
    """The last line: the declared metrics; correct only if all are there."""
    failed = sum(t.error is not None for t in tasks)
    metrics = {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]}
               for m in declared if m["name"] in figures}
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(declared),
                      "attempted": len(tasks), "failed": failed, "metrics": metrics},
                     default=float))


def run_all(args):
    """Every workload in turn, each in its own process; one line per figure."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in NETWORK_OF:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--size", args.size]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update((f"{workload}.{k}", v) for k, v in result["metrics"].items())
    print(json.dumps(merged))
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--setup-child"]:
        workload, size, workdir = argv[1:4]
        use_src()
        wall, cpu, _ = setup(workload, size, Path(workdir))
        print(wall, cpu)
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*NETWORK_OF, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    use_src()
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
