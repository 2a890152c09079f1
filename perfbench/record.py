"""Record the stdout digest of every request the workloads can produce.

    python3 perfbench/record.py

Runs each request of `workloads.pool()` through the CLI in a child
interpreter (one per request on `search-cold`, one per workload otherwise,
as in run.py) and writes perfbench/expected.json, a map from the request to
the sha256 of its stdout.  It stops without writing if a request fails or a
vertex-count table differs from the acceptance table.  Record only at a
commit whose output is known good: run.py treats any other output as wrong.
"""

import hashlib
import json
import sys
import time

import workloads as wl
from run import HERE, Child, check


def main() -> int:
    expected = {}
    for workload in wl.WORKLOADS:
        requests = wl.pool(workload)
        cold = workload == "search-cold"
        child = None
        start = time.perf_counter()
        for argv in requests:
            child = child or Child(False, time.monotonic() + 3600)
            resp = child.ask(argv)
            if cold:
                child.close()
                child = None
            digest = hashlib.sha256(resp["out"].encode()).hexdigest()
            problem = check(argv, resp, {wl.key(argv): digest})
            if problem:
                print(f"{wl.key(argv)}: {problem}", file=sys.stderr)
                return 1
            expected[wl.key(argv)] = digest
        if child is not None:
            child.close()
        print(f"{workload}: {len(requests)} requests in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
