"""One sample of a workload in a fresh interpreter.

Usage: ``python3 perfbench/worker.py <job.json>``.  The job names the
source tree, the generated configs and their output directories.  The
worker times ``import modnls.cli`` plus ``parse_config`` of every config
(set-up), then, unless the job is set-up only, runs every invocation
through ``modnls.cli.main`` in sequence (the run), optionally under the
tracer, and writes its timings, exit codes and peak RSS to the job's
result file.  Only the standard library is imported before the set-up
timer starts.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    texts = [Path(inv["config"]).read_text() for inv in job["invocations"]]

    t0 = time.perf_counter()
    import modnls.cli as cli
    t1 = time.perf_counter()
    for inv, text in zip(job["invocations"], texts):
        cli.parse_config(inv["subcommand"], text)
    t2 = time.perf_counter()
    result = {"import_s": t1 - t0, "setup_s": t2 - t0}

    if job["run"]:
        tracer = None
        if job["trace"]:
            import tracer as tracing  # perfbench/ is sys.path[0]

            tracer = tracing.Tracer()
            tracing.install(tracer)
        exits, errors = [], []
        start = time.perf_counter()
        try:
            for inv in job["invocations"]:
                argv = [inv["subcommand"], "--config", inv["config"], "--out", inv["out"]]
                try:
                    exits.append(cli.main(argv))
                except Exception as exc:  # a crash is a failed invocation, not a benchmark error
                    exits.append(None)
                    errors.append(f"{inv['name']}: {type(exc).__name__}: {exc}")
        finally:
            run_s = time.perf_counter() - start
            if tracer is not None:
                result["left_wrapped"] = tracer.restore()
        result.update(run_s=run_s, exits=exits, errors=errors)
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["unwrapped"] = tracer.missing
            Path(job["spans"]).write_text(json.dumps(tracer.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
