"""Set-up process: generate one workload's inputs several times.

Run by run.py as a separate process, so that set-up memory (for
fit_class, ``data.inject_label_outliers`` predicts every training row
through the reference model) never counts toward the measured process's
peak RSS.  Set-up repeats at least MIN_REPS times and until MIN_SECONDS
have passed, so that a set-up of a few milliseconds still gives a steady
median.  Each repetition writes into its own directory, ``rep<i>`` under
``--out``; run.py checks that they are byte-identical and reports the
median set-up time.  Prints one JSON line:
``{"seconds": [...], "layers": {...}}``.

    python3 perfbench/setup_inputs.py --workload fit_class --seed 0 \\
        --out perfbench/.work/x [--trace]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
MIN_REPS = 5
MIN_SECONDS = 4.0
MAX_REPS = 100


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    seconds = []
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or (time.perf_counter() - start < MIN_SECONDS
                             and rep < MAX_REPS):
        out_dir = Path(args.out) / f"rep{rep}"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.op = rep
        t0 = time.perf_counter()
        workload.make_inputs(out_dir, args.seed)
        seconds.append(time.perf_counter() - t0)
        rep += 1
    tracer.uninstall()

    layers = {}
    if args.trace:
        per_rep = [sum(s.seconds for s in tracer.spans
                       if s.op == rep and s.name == "data.inject")
                   for rep in range(len(seconds))]
        layers["data.inject_s"] = statistics.median(per_rep)
    print(json.dumps({"seconds": seconds, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
