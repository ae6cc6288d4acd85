"""Steadiness check: run workloads over several seeds and report, for each
end-to-end metric, the median, the quartile spread (Q3 - Q1) / median and
its bound from BENCHMARK.json.  A benchmark is steady when every spread
except that of setup_s is below a third of its bound.

    python3 perfbench/steady.py --workloads fit_class,anneal_reg --seeds 0-9

Each run's full output is appended to perfbench/.work/steady.log.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = HERE / ".work" / "steady.log"
    log.parent.mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            with open(log, "a") as fh:
                fh.write(f"$ {' '.join(cmd)}\n{proc.stdout}{proc.stderr}")
            if proc.returncode != 0 or not json.loads(
                    proc.stdout.strip().splitlines()[-1])["correct"]:
                print(f"{workload} seed {seed}: run failed, see {log}")
                steady = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload:14s} wall per run: mean {statistics.mean(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name, vals in values.items():
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"{workload:14s} {name:12s} median {med:12.5g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:5.3f}  {'ok' if ok else 'WIDE'}  "
                  f"[{', '.join(f'{v:.5g}' for v in vals)}]", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
