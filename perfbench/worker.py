"""One measured pass of a workload, in a fresh interpreter like a CLI call.

    python3 perfbench/worker.py '{"workload": "verify", "spec": {"verify_seed": null},
                                  "trace": false, "spans": null, "request": "verify:1:0"}'

The job's ``spec`` comes from ``workloads.inputs``.  The workload "setup"
only imports the package.  The first thing timed is
``import biquo.cli``; the last line of standard output is one JSON object.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_t0 = time.perf_counter()
import biquo.cli  # noqa: E402  (the import is what set-up time measures)

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_pass(job: dict) -> dict:
    name, spec = job["workload"], job["spec"]
    measure = workloads.MEASURE[name]
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.request = job["request"]
        with tracer.installed():
            result = measure(spec)
    else:
        result = measure(spec)
    errors = workloads.CHECK[name](spec, result)
    attempted, failed = workloads.account(name, result, errors)
    out = {k: v for k, v in result.items() if k != "outputs"}
    out.update(attempted=attempted, failed=failed, errors=errors[:5])
    if tracer is not None:
        out["layers"] = tracer.summary()
        if job["spans"]:
            tracer.write(job["spans"])
    return out


def main() -> None:
    job = json.loads(sys.argv[1])
    out = {"import_s": IMPORT_S}
    if job["workload"] != "setup":
        out.update(run_pass(job))
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
