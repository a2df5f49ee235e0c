#!/usr/bin/env python3
"""Record the reference outputs that run.py checks: every trial's MAEs and
the best pick of each sweep, and each scored series' MAE, per workload and
input seed. Run from the repository root, on a commit whose results are
trusted:

    python3 perfbench/record_reference.py --seeds 0-19

Refuses to record when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import run


def record(name: str, seed: int, cli, synthetic) -> dict:
    ledger = run.Ledger()
    workload = run.make_workload(name)
    workdir = run.WORK / f"reference-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(seed, workdir, synthetic, cli, ledger)
        _, out = workload.run_pass(cli, ledger)
        result = workload.check(out, ledger, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ledger.failed:
        raise SystemExit(f"{name} seed {seed}: checks failed: {ledger.failures}")
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-19", help="inclusive range 'a-b'")
    args = p.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    os.environ.setdefault("FXBENCH_LOG", "warn")
    cli, synthetic, _ = run.import_fxbench()
    reference = {
        name: {str(seed): record(name, seed, cli, synthetic) for seed in seeds}
        for name in run.WORKLOADS
    }
    path = run.HERE / "reference.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path.relative_to(run.ROOT)} for seeds {lo}..{hi or lo}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
