"""The ncfem benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --write-reference     # re-pin the seed-0 outputs

Each rep of a workload runs its CLI commands through `ncfem.cli.main` in a
fresh interpreter (worker.py), because every CLI call pays the cold
module-level caches; reps run one at a time, never in parallel.  Reps repeat
until --seconds of them have run.  With --trace 0 the last line reports the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones from
reps that alternate between untraced and traced.  Every command's output is
checked (checks.py); a failed check, a nonzero exit, an exception or a dead
worker counts the command as failed.  All files go to .perfbench_work/ in
the checkout, which is removed at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks                                     # noqa: E402
from workloads import MESH_FILE, WORKLOADS, write_mesh_file   # noqa: E402

REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5          # set-up is measured at least this often per run
RUN_BUDGET_S = 165.0       # a run stops starting reps after this

# Each traced span and the workloads on which it must fire; a traced run of
# one of these workloads in which the span never fires is not correct.
ALL = tuple(WORKLOADS)
STUDY_LIKE = ("afem_lshape", "uniform_studies", "mesh_input")
REQUIRED_SPANS = {
    "solve.splu": ALL,
    "solve.spsolve": ALL,
    "solve.sparse_solve": ALL,
    "solve.newton_solve": ALL,
    "solve.gamma_norm_lower_bound": ("diagnostics",),
    "assembly.gamma_ns_value": ("diagnostics",),
    "assembly.gamma_vk_value": ("diagnostics",),
    "solve.kantorovich_report": ("diagnostics",),
    "solve.infsup_constant": ("diagnostics",),
    "mesh.read_mesh": ("mesh_input",),
    "mesh.build_from_arrays": ALL,
    "mesh.bisect": ALL,
    "mesh.uniform_refine": ("uniform_studies", "diagnostics", "mesh_input"),
    "mesh.geometry": ALL,
    "afem.dorfler_mark": ("afem_lshape",),
    "afem.afem_loop": ("afem_lshape",),
    "interpolation.transfer_morley": ("afem_lshape", "uniform_studies"),
    "assembly.assembler": ALL,
    "spaces.basis_tables": ALL,
    "spaces.build_dofmap": ALL,
    "assembly.residual": ALL,
    "assembly.jacobian": ALL,
    "estimators.estimate": STUDY_LIKE,
    "estimators.broken_energy_error": ("uniform_studies", "mesh_input"),
    "interpolation.oscillation": STUDY_LIKE,
    "problems.manufactured": ("uniform_studies", "diagnostics", "mesh_input"),
    "reporting.write_records_csv": STUDY_LIKE,
    "reporting.emit_plots": STUDY_LIKE,
}


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def thread_cap():
    return len(os.sched_getaffinity(0))


def environment():
    import numpy
    import scipy
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": thread_cap(), "ram_gb": round(ram / 2 ** 30, 2),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": int(worker_env()["OPENBLAS_NUM_THREADS"])}


def worker_env():
    """The worker sees the checkout's src/ only, and no BLAS or OpenMP pool
    larger than the processors this process may run on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    cap = thread_cap()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = int(env.get(var, cap))
        except ValueError:
            n = cap
        env[var] = str(min(max(n, 1), cap))
    return env


class Rep:
    """One worker process: its events, its peak RSS and its checked ops."""

    def __init__(self, workload, traced, setup_only, deadline, seed, reference):
        self.workload, self.traced = workload, traced
        results = WORK / "results.jsonl"
        out = WORK / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        results.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--root", str(ROOT), "--out", str(out),
               "--mesh", str(WORK / MESH_FILE), "--results", str(results)]
        if traced:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        t0 = perf_counter()
        with open(WORK / "worker.log", "w") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=worker_env(), cwd=ROOT)
            killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.elapsed = perf_counter() - t0
        self.exit_code = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.events = []
        if results.exists():
            self.events = [json.loads(line) for line in results.read_text().splitlines()
                           if line.endswith("}")]
        self.log = (WORK / "worker.log").read_text()
        self.setup_s = next((e["setup_s"] for e in self.events
                             if e["event"] == "setup"), None)
        end = next((e for e in self.events if e["event"] == "end"), None)
        self.wall_s = end["wall_s"] if end else self.elapsed
        self.layers = end.get("layers") if end else None
        self.failures = []
        if not setup_only:
            self._check(seed, reference)

    def _check(self, seed, reference):
        spec = WORKLOADS[self.workload]
        ran = [e for e in self.events if e["event"] == "command"]
        refs = reference.get(self.workload, [])
        rtol = checks.RTOL
        if self.workload == "mesh_input" and seed != 0:
            rtol = checks.JITTERED_RTOL
        for i in range(len(spec.commands)):
            if i >= len(ran):
                self.failures.append((i, f"not run: worker exited with {self.exit_code}"))
                continue
            for msg in checks.check(ran[i], refs[i] if i < len(refs) else None, rtol):
                self.failures.append((i, msg))
        if self.exit_code != 0 and len(ran) == len(spec.commands):
            self.failures.append((len(ran) - 1, f"worker exited with {self.exit_code}"))

    @property
    def attempted(self):
        return len(WORKLOADS[self.workload].commands)

    @property
    def failed(self):
        return len({i for i, _ in self.failures})

    @property
    def observations(self):
        ran = [e for e in self.events if e["event"] == "command"]
        return [checks.observe(e["argv"], e["stdout"]) for e in ran]


def run_workload(name, seed, seconds, trace, reference):
    """Runs reps of one workload; returns (correct, attempted, failed, metrics)."""
    t_start = perf_counter()
    deadline = t_start + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    write_mesh_file(WORK / MESH_FILE, seed)
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = Rep(name, traced, False, deadline, seed, reference)
        reps.append(rep)
        for i, msg in rep.failures:
            print(f"FAIL {name} command {i}: {msg}", file=sys.stderr)
        if rep.exit_code != 0 and rep.log.strip():
            print(rep.log[-2000:], file=sys.stderr)
        print(f"rep {len(reps)} {'traced' if traced else 'untraced'}: "
              f"wall {rep.wall_s:.3f} s, setup {rep.setup_s} s, "
              f"rss {rep.rss_mb:.0f} MB, failed {rep.failed}/{rep.attempted}")
        now = perf_counter()
        enough = now - t_start >= seconds and (not trace or len(reps) >= 2)
        if enough or now + rep.elapsed > deadline:
            break
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    correct = failed == 0
    untraced = [r for r in reps if not r.traced]
    if not trace:
        setups = [r.setup_s for r in reps if r.setup_s is not None]
        while len(setups) < SETUP_SAMPLES and perf_counter() + 10 < deadline:
            probe = Rep(name, False, True, deadline, seed, reference)
            if probe.setup_s is None:
                correct = False
                print(f"set-up probe failed:\n{probe.log[-2000:]}", file=sys.stderr)
                break
            setups.append(probe.setup_s)
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "setup_s": statistics.median(setups or [r.elapsed for r in reps]),
            "peak_rss_mb": statistics.median(r.rss_mb for r in untraced),
            "ok_frac": 1.0 - failed / attempted,
        }
        return correct, attempted, failed, metrics
    metrics, ok = traced_metrics(name, reps)
    return correct and ok, attempted, failed, metrics


def traced_metrics(name, reps):
    traced = [r.layers for r in reps if r.traced and r.layers is not None]
    untraced = [r.wall_s for r in reps if not r.traced]
    if not traced:
        print("no traced rep finished", file=sys.stderr)
        return {}, False
    ok = True
    for span, workloads in REQUIRED_SPANS.items():
        if name in workloads and not all(t.get(f"{span}.calls", 0) for t in traced):
            print(f"traced span {span} never fired on {name}", file=sys.stderr)
            ok = False
    for t in traced:
        modules = sum(v for k, v in t.items()
                      if k.endswith(".self_s") and k.count(".") == 1)
        closure = modules + t["untraced.s"]
        print(f"closure: layer self times {modules:.4f} s + untraced "
              f"{t['untraced.s']:.6f} s = {closure:.4f} s; traced wall "
              f"{t['trace.wall_s']:.4f} s")
        if abs(closure - t["trace.wall_s"]) > 1e-6 * max(1.0, t["trace.wall_s"]):
            print("layer self times do not add up to the wall time", file=sys.stderr)
            ok = False
    merged = {}
    for key in set().union(*traced):
        merged[key] = statistics.median(t.get(key, 0.0) for t in traced)
    merged["trace.untraced_wall_s"] = statistics.median(untraced)
    merged["trace.overhead_s"] = merged["trace.wall_s"] - merged["trace.untraced_wall_s"]
    return merged, ok


def select(metrics, declared):
    return {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared}


def write_reference():
    reference = {}
    for name in WORKLOADS:
        WORK.mkdir(exist_ok=True)
        write_mesh_file(WORK / MESH_FILE, 0)
        rep = Rep(name, False, False, perf_counter() + RUN_BUDGET_S, 0, {})
        if rep.exit_code != 0:
            sys.exit(f"{name}: worker failed\n{rep.log}")
        obs = rep.observations
        for o in obs:
            o.pop("positive", None)
        reference[name] = obs
        print(f"{name}: {len(obs)} commands pinned")
    REFERENCE.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(o)}" for o in obs) + "\n ]"
        for name, obs in reference.items()) + "\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "ncfem" / "cli.py").is_file():
        print(f"no ncfem sources under {ROOT / 'src'}: nothing to benchmark",
              file=sys.stderr)
        return 2
    spec = benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.write_reference:
            write_reference()
            return 0
        reference = json.loads(REFERENCE.read_text())
        print("env:", json.dumps(environment()))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            correct, attempted, failed, metrics = run_workload(
                name, args.seed, seconds, bool(args.trace), reference)
            results[name] = {"correct": correct, "attempted": attempted,
                             "failed": failed, "metrics": select(metrics, declared)}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print_table(results, declared)
    print(json.dumps(results))
    return 0


def print_table(results, declared):
    names = list(results)
    print(f"{'metric':<36}{'unit':<7}" + "".join(f"{n:>17}" for n in names))
    for m in declared:
        row = "".join(f"{results[n]['metrics'][m['name']]['value']:>17.4g}" for n in names)
        print(f"{m['name']:<36}{m['unit']:<7}{row}")
    row = "".join(f"{r['failed'] / r['attempted']:>17.4g}" for r in results.values())
    print(f"{'failed_frac':<36}{'ratio':<7}{row}")


if __name__ == "__main__":
    sys.exit(main())
