"""Child interpreter of the benchmark: serves CLI requests over pipes.

Started by run.py with a pinned environment.  It imports `kisindim.cli`,
writes one "ready" line, then reads one JSON argv list per line from stdin,
calls `kisindim.cli.main(argv)` with stdout and stderr captured, and answers
with one JSON line {"rc", "out", "err"}.  At end of input it writes a final
line with its peak RSS and, when started with `--trace 1`, the tracer report.
A line {"calibrate": 1} instead runs the host-speed probe and answers with
{"cal_s": seconds}.
"""

import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

CAL_ITERS = 3000


def calibrate() -> float:
    """Seconds for a fixed mix of int, Fraction and dict work, the kind of
    work kisindim does; run.py scales its times by this host-speed probe."""
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, CAL_ITERS):
        total += Fraction(i % 97, i % 13 + 1)
        table[i % 101] = table.get(i % 101, 0) + i * i
    return time.perf_counter() - start


def _send(obj) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def main() -> int:
    trace = sys.argv[1:] == ["--trace", "1"]
    import kisindim.cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _send({"ready": os.path.abspath(kisindim.cli.__file__)})
    for n, line in enumerate(sys.stdin):
        argv = json.loads(line)
        if isinstance(argv, dict):
            _send({"cal_s": calibrate()})
            continue
        if tracer is not None:
            tracer.request = n
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        try:
            rc = kisindim.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the request
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            rc, err = -1, io.StringIO(repr(exc))
        finally:
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        _send({"rc": rc, "out": out.getvalue(), "err": err.getvalue()})
    _send({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "trace": tracer.report() if tracer is not None else None})
    return 0


if __name__ == "__main__":
    sys.exit(main())
