#!/usr/bin/env python3
"""Self-test of the simulator benchmark at tiny scale.

    python3 perfbench/selftest.py

Builds perfbench (see run.py), then for every workload, at a scale small
enough to finish in seconds:
  * both modes pass, and report exactly the metrics BENCHMARK.json names,
    each with its unit; the per-layer run also proves that every traced
    and single-threaded trial equals the pooled run's trial;
  * a run at another seed than its reference is refused by the digest check;
  * a run of a changed workload spec is refused by the digest check.
Exits nonzero on the first failed expectation.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Tiny scales, each with a stored reference digest at run.DEFAULT_SEED.
SCALES = {
    "paper_10pb": 0.002,
    "fabric_2pb": 0.01,
    "client_storm": 0.25,
    "fleet_churn_2pb": 0.01,
}
SECONDS = 0.1
WORK_DIR = run.BUILD / "selftest"


def result_of(workload, seed, trace, extra=()):
    proc = run.run_workload(workload, seed, SECONDS, trace, extra=extra, capture=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stdout


def expect(cond, what):
    if not cond:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main():
    run.build()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    references = json.loads((run.HERE / "reference_digests.json").read_text())
    expected_metrics = {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    expect(sorted(w["name"] for w in manifest["workloads"]) == run.WORKLOADS,
           "BENCHMARK.json lists one workload per spec in workloads/")
    expect(sorted(SCALES) == run.WORKLOADS, "every workload has a tiny scale")

    for workload, scale in SCALES.items():
        tiny = ["--scale", str(scale)]
        expect(any(r["workload"] == workload and r["scale"] == scale and
                   r["seed"] == str(run.DEFAULT_SEED)
                   for r in references["references"]),
               f"{workload}: a reference digest exists at scale {scale}")
        for trace in (0, 1):
            code, result, _ = result_of(workload, run.DEFAULT_SEED, trace, tiny)
            checked = "correct, traced == pooled" if trace else "correct"
            expect(code == 0 and result and result["correct"] and result["failed"] == 0,
                   f"{workload} --trace {trace}: {checked}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == expected_metrics[trace],
                   f"{workload} --trace {trace}: every named metric, with its unit")

        # The reference relabelled as another seed's: the digest must differ.
        other_seed = run.DEFAULT_SEED + 1
        relabelled = dict(references)
        relabelled["references"] = [
            dict(r, seed=str(other_seed)) if r["workload"] == workload and
            r["scale"] == scale else r for r in references["references"]]
        refs = WORK_DIR / f"{workload}-references.json"
        refs.write_text(json.dumps(relabelled))
        code, result, out = result_of(workload, other_seed, 0,
                                      tiny + ["--references", str(refs)])
        expect(code != 0 and result and not result["correct"] and "FAIL: digest" in out,
               f"{workload}: another seed is refused by the digest check")

        # The same spec with one recovery knob changed.
        spec = json.loads((run.HERE / "workloads" / f"{workload}.json").read_text())
        spec["base"]["recovery"]["detection_latency_sec"] = 600
        changed = WORK_DIR / f"{workload}-changed.json"
        changed.write_text(json.dumps(spec))
        code, result, out = result_of(workload, run.DEFAULT_SEED, 0,
                                      tiny + ["--spec", str(changed)])
        expect(code != 0 and result and not result["correct"] and "FAIL: digest" in out,
               f"{workload}: a changed config is refused by the digest check")
    print("selftest passed")


if __name__ == "__main__":
    main()
