"""coulomblab benchmark: runs one workload in fresh processes through
coulomblab.cli.cli_main, checks every output against a committed reference,
and prints the metrics as one JSON object on the last line of stdout.

Run from the root of a checkout (the package is imported from ./src):

  python3 perfbench/run.py --workload thermo-scan --seed 0 --seconds 40 --trace 0

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 alternates untraced and traced processes and reports the per-layer
metrics of the traced ones, the tracing overhead and the dominant layer.
--record rewrites the reference outputs of the seed's variant instead.

Every run is a closed loop: one process at a time, each running the whole
workload, started again while the next one fits in --seconds.  BLAS threads
are pinned (default: nproc) and recorded with the software versions.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
SETUP_PROBES = 5  # import-only processes per run, besides the workload ones
RUN_LIMIT_S = 170  # the whole run ends by then; a process still going is killed


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    def __init__(self, root, work, env, deadline):
        self.root = root
        self.work = work
        self.env = env
        self.deadline = deadline
        self.n = 0

    def child(self, calls=(), trace=False, probe=False):
        """Run one process; its result dict, or None if it failed."""
        self.n += 1
        tag = os.path.join(self.work, f"p{self.n}")
        job = {
            "src": os.path.join(self.root, "src"),
            "result": tag + ".result.json",
            "calls": list(calls),
            "trace": trace,
            "probe": probe,
        }
        with open(tag + ".job.json", "w") as fh:
            json.dump(job, fh)
        with open(tag + ".log", "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), tag + ".job.json"],
                cwd=self.root, env=self.env, stdout=log, stderr=log,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                sys.stderr.write(f"process {self.n} killed at the run's time limit\n")
            finally:  # also on SIGTERM or an error here: never leave it running
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            sys.stderr.write(f"process {self.n} exited with {proc.returncode}; see {tag}.log\n")
            return None
        with open(job["result"]) as fh:
            res = json.load(fh)
        res["setup_s"] = res["imported_at"] - spawned
        return res


def _write_configs(work, calls):
    out = []
    for name, argv, cfg in calls:
        if cfg is not None:
            path = os.path.join(work, f"{name}.config.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            argv = argv + ["--config", path]
        out.append((name, argv))
    return out


def _iteration(runner, calls, trace, ref_dir):
    """One workload process.  Returns (result or None, digest, failures)."""
    it_dir = os.path.join(runner.work, f"it{runner.n + 1}")
    os.makedirs(it_dir)
    outs = [os.path.join(it_dir, f"{name}.csv") for name, _argv in calls]
    res = runner.child([argv + ["--out", o] for (_n, argv), o in zip(calls, outs)], trace=trace)
    digest = hashlib.sha256()
    failures = []
    for (name, _argv), i, path in zip(calls, range(len(calls)), outs):
        why = []
        if res is None:
            why = ["process failed"]
        elif res["codes"][i] != 0:
            why = [f"exit code {res['codes'][i]}"]
        else:
            with open(path) as fh:
                text = fh.read()
            digest.update(text.encode())
            if ref_dir is None:  # recording: only the verdict columns are checked
                why = check.problems(text, text)
            else:
                ref_path = os.path.join(ref_dir, f"{name}.csv")
                if not os.path.exists(ref_path):
                    why = [f"no reference {ref_path}"]
                else:
                    with open(ref_path) as fh:
                        why = check.problems(text, fh.read())
        if why:
            failures.append((name, path, why))
            sys.stderr.write(f"{name}: FAILED ({len(why)} problems) first: {why[0]}\n")
    return res, digest.hexdigest(), failures


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=None, help="default: nproc")
    p.add_argument("--record", action="store_true", help="rewrite this variant's reference")
    args = p.parse_args(argv)
    t_start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coulomblab", "cli.py")):
        sys.stderr.write("error: no src/coulomblab here; run from the root of a checkout\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = nproc if args.blas_threads is None else args.blas_threads
    if not 1 <= threads <= nproc:
        sys.stderr.write(f"error: --blas-threads {threads} is outside 1..nproc={nproc}\n")
        return 2
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(root, ".perfbench_out", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work, env, t_start + RUN_LIMIT_S)
    variant = workloads.variant_of(args.seed)
    ref_dir = os.path.join(REFERENCE, args.workload, f"v{variant}")
    calls = _write_configs(work, workloads.calls(args.workload, args.seed))

    if args.record:
        res, _digest, failures = _iteration(runner, calls, False, None)
        if res is None or failures:
            sys.stderr.write("error: not recording a failing output\n")
            return 1
        os.makedirs(ref_dir, exist_ok=True)
        for name, _argv in calls:
            shutil.copy(os.path.join(work, f"it{runner.n}", f"{name}.csv"), ref_dir)
        print(f"recorded {len(calls)} outputs in {ref_dir}")
        return 0

    setup = []
    env_record = None
    for _ in range(SETUP_PROBES):
        res = runner.child(probe=True)
        if res is not None:
            setup.append(res["setup_s"])
            env_record = env_record or res["env"]
    if env_record is None:
        sys.stderr.write("error: coulomblab could not be imported\n")
        return 1
    env_record.update(
        nproc=nproc, blas_threads=threads, cpu_model=_cpu_model(),
        workload=args.workload, seed=args.seed, variant=variant, trace=args.trace,
    )
    with open(os.path.join(work, "env.json"), "w") as fh:
        json.dump(env_record, fh, indent=1)
    print("# env " + json.dumps(env_record, sort_keys=True))

    kinds = (False, True) if args.trace else (False,)
    runs = {False: [], True: []}
    digests = set()
    attempted = failed = 0
    t_loop = time.monotonic()
    while True:
        t_unit = time.monotonic()
        for traced in kinds:
            res, digest, failures = _iteration(runner, calls, traced, ref_dir)
            attempted += len(calls)
            failed += len(failures)
            if res is not None:
                runs[traced].append(res)
                setup.append(res["setup_s"])
                digests.add(digest)
        now = time.monotonic()
        if res is None or now - t_loop + (now - t_unit) > args.seconds:
            break

    plain, traced = runs[False], runs[True]
    if not plain or (args.trace and not traced):
        sys.stderr.write("error: no workload process completed\n")
        return 1
    if args.trace:
        metrics = _per_layer(plain, traced, digests)
    else:
        metrics = {
            "wall_s": (median([r["wall_s"] for r in plain]), "s"),
            "setup_s": (median(setup), "s"),
            "peak_rss_mb": (median([r["peak_rss_kb"] / 1024.0 for r in plain]), "MB"),
        }
    print(f"# {len(plain) + len(traced)} workload processes, {len(setup)} set-up samples")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _per_layer(plain, traced, digests):
    """Per-layer metrics: medians over the traced processes, plus process
    figures from the untraced ones; prints the self-time shares."""
    per_run = [tracer.layer_metrics(r["spans"], r["counts"]) for r in traced]
    metrics = {
        key: (median([m[key][0] for m in per_run]), unit)
        for key, (_v, unit) in per_run[0].items()
    }
    wall = median([r["wall_s"] for r in plain])
    traced_wall = median([r["wall_s"] for r in traced])
    metrics["cli.output.distinct_digests"] = (len(digests), "count")
    metrics["process.cpu_s"] = (median([r["cpu_s"] for r in plain]), "s")
    metrics["process.cpu_per_wall"] = (median([r["cpu_s"] / r["wall_s"] for r in plain]), "ratio")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    shares = sorted(((metrics[f"{m}.self_s"][0], m) for m in tracer.MODULES), reverse=True)
    print(
        f"# self time by layer, share of traced wall_s {traced_wall:.3f} s "
        f"(median of {len(traced)} traced processes): "
        + ", ".join(f"{m} {s:.3f} s {s / traced_wall:.1%}" for s, m in shares)
    )
    print(f"# dominant layer: {shares[0][1]}")
    print(
        f"# tracing overhead: traced wall_s {traced_wall:.3f} s - untraced wall_s "
        f"{wall:.3f} s = {traced_wall - wall:+.3f} s"
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
