"""One benchmark process: import coulomblab, run a workload's CLI calls
through coulomblab.cli.cli_main, and write timings (and spans, when traced)
to a JSON file.

Usage: python3 perfbench/child.py JOB.json

The job holds "src" (the package sources), "result" (where to write),
"calls" (a list of argv lists), "trace" (bool) and "probe" (bool: stop after
the import, for set-up timing).
"""

import json
import resource
import sys
import time


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import coulomblab.cli as cli

    result = {"imported_at": time.monotonic()}
    if job["probe"]:
        import platform

        import numpy
        import scipy

        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        result["env"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '?')}",
        }
    else:
        tracer = None
        if job["trace"]:
            from tracer import ROOT, Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        codes = []
        for i, argv in enumerate(job["calls"]):
            if tracer is None:
                codes.append(cli.cli_main(argv))
            else:
                tracer.run_id = i
                codes.append(tracer.span(ROOT, cli.cli_main, argv))
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
        result["codes"] = codes
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
    # ru_maxrss is in KiB on Linux; this process's own peak, not its parent's
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
