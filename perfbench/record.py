"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record.py [--workload NAME] [--tiny] [--instances 0-31]

Runs each requested instance of the pool once with the checkout's
``metricvote`` and merges the outputs into ``reference/<workload>.json``.
The committed references come from the commit that introduced the
benchmark; re-record only to add instances or workloads, never to absorb a
change in a result.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import load_program  # noqa: E402
from workloads import POOL, REFERENCE_DIR, WORKLOADS  # noqa: E402


def record(name: str, tiny: bool, instances) -> None:
    wl = WORKLOADS[name]
    path = REFERENCE_DIR / f"{name}.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"workload": name}
    table = doc.setdefault("tiny" if tiny else "full", {})
    doc["sizes"] = {"full": wl.full, "tiny": wl.tiny}
    for instance in instances:
        with tempfile.TemporaryDirectory(dir=REFERENCE_DIR.parent / "_work") as tmp:
            inputs = wl.prepare(instance, Path(tmp), tiny)
            t0 = time.perf_counter()
            table[str(instance)] = wl.outputs(inputs, wl.run(inputs))
        print(f"{name} {'tiny' if tiny else 'full'} instance {instance}: {time.perf_counter() - t0:.2f} s", flush=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), action="append")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--instances", default=f"0-{POOL - 1}", help="range lo-hi, inclusive")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.instances.split("-"))
    load_program()
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR.parent / "_work").mkdir(exist_ok=True)
    for name in args.workload or WORKLOADS:
        record(name, args.tiny, range(lo, hi + 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
