"""One workload round in a fresh process: set up, run the CLI, report.

Usage: python3 bench/worker.py SPEC_JSON

SPEC_JSON holds ``configs`` (paths to parse and validate), ``argv`` (the
``stefanlab`` command line, or null to stop after set-up), ``trace`` (record
spans) and ``result`` (the JSON file this process writes).  Set-up time runs
from before ``import stefanlab`` to the last ``validate_scenario``; the
round's wall time runs from the CLI call until it returns, that is until the
last ``summary.txt`` is written.
"""

import json
import sys
import time


def main(spec: dict) -> None:
    t0 = time.perf_counter()
    import stefanlab.cli as cli

    recorder = None
    if spec["trace"]:
        import tracing

        recorder = tracing.SpanRecorder()
        missing = tracing.install(recorder)
        if missing:
            print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)

    for path in spec["configs"]:
        p, cfg = cli.parse_config(path)
        cli.validate_scenario(cfg, p)
    result = {"setup_s": time.perf_counter() - t0}

    if spec["argv"] is not None:
        t1 = time.perf_counter()
        code = cli.main(spec["argv"])
        result["wall_s"] = time.perf_counter() - t1
        result["exit_code"] = code
        import resource

        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            recorder.save(spec["spans"])

    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
