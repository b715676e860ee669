#!/usr/bin/env python3
"""Write golden.json: this commit's output digests for the seeds a run may use.

    python3 winbench/make_golden.py

A run compares every window (or sweep) whose seed is listed here with the
stored digest. Regenerate the file only in a change that means to alter
outputs; a change that claims unchanged outputs must pass against it as is.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402

#: --seed values covered: window workloads also need the pool beyond each one
WINDOW_SEEDS = 256
SWEEP_SEEDS = 128


def main() -> None:
    golden = {}
    for workload in wl.WORKLOADS.values():
        config = wl.load(workload.name, 0)
        table = {}
        if workload.kind == "sweep":
            for seed in range(SWEEP_SEEDS):
                text = wl.table_text(wl.run_sweep(wl.load(workload.name, seed)))
                table[str(seed)] = wl.digest(text)
        else:
            for seed in range(WINDOW_SEEDS + workload.pool - 1):
                record, _ = wl.run_window(config, seed)
                table[str(seed)] = wl.digest(wl.rows_text(record))
        golden[workload.name] = table
        print(workload.name, len(table), flush=True)
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
