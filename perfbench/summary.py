"""Print the end-to-end metrics of every workload, with units, as one table.

    python3 perfbench/summary.py

Runs perfbench/run.py once per workload with the tracer off, seed 1 and
BENCHMARK.json's run_seconds. failed_frac is the result line's ``failed``
over ``attempted``.
"""

import json
import subprocess
import sys

from run import HERE, ROOT, load_benchmark


def main() -> int:
    bench = load_benchmark()
    status = 0
    for workload in bench["workloads"]:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", "1", "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        cells = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
        cells.append(f"failed_frac {result['failed'] / result['attempted']:.6g} fraction")
        print(f"{workload['name']:12s} correct={result['correct']}  " + "  ".join(cells))
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
