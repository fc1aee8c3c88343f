"""stonedual benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Each workload runs in a fresh
interpreter (``worker.py``) that imports stonedual from ``src/``.  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; set-up runs ``SETUP_RUNS`` times, each in its own
interpreter, and the median is reported.  With ``--trace 1`` the workload
runs untraced and traced side by side, and the line holds the per-layer
metrics of the traced run.  The line before it holds the workload's stage
times and sample counts.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import per_layer_spec

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("corpus", "ladder", "relabel")
SETUP_RUNS = 3
DEADLINE_S = 170.0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_ms.p50", "ms"),
              ("op_ms.p97", "ms"), ("peak_rss_mb", "MB"))


class WorkerFailed(Exception):
    pass


def percentile(values, q):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def start_worker(root, args, mode):
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--root", root]
    return subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)


def finish_worker(proc, deadline):
    """Wait for a worker and parse the JSON on its last line of output."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("a worker did not finish in time") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"a worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workers(root, args, modes, deadline):
    """Run workers side by side and return their results in order."""
    procs = []
    try:
        for mode in modes:
            procs.append(start_worker(root, args, mode))
        return [finish_worker(proc, deadline) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def end_to_end(root, args, deadline):
    setups = [run_workers(root, args, ["setup"], deadline)[0]["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    (res,) = run_workers(root, args, ["run"], deadline)
    setups.append(res["setup_s"])
    p50, _ = percentile(res["op_ms"], 0.50)
    p97, beyond = percentile(res["op_ms"], 0.97)
    values = {"setup_s": statistics.median(setups), "wall_s": res["wall_s"],
              "op_ms.p50": p50, "op_ms.p97": p97,
              "peak_rss_mb": res["peak_rss_mb"]}
    detail = {"setup_runs_s": setups, "op_samples": len(res["op_ms"]),
              "op_ms.p97_samples_beyond": beyond}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return res, metrics, detail, True


def per_layer(root, args, deadline):
    # the two runs share the machine's two cores, so each sees the same
    # contention and the overhead ratio stays fair
    plain, res = run_workers(root, args, ["run", "trace"], deadline)
    values = dict(res["layers"])
    values["trace.overhead_frac"] = res["wall_s"] / plain["wall_s"] - 1.0
    values["trace.attributed_frac"] = res["timed_self_s"] / res["wall_s"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in per_layer_spec()}
    detail = {"untraced_wall_s": plain["wall_s"],
              "trace_file": res["trace_file"]}
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    res["errors"] += plain["errors"]
    return res, metrics, detail, plain["verdicts"] == res["verdicts"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sets the work of a run: corpus sweep passes "
                             "and relabel query rounds; ladder is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stonedual",
                                       "__init__.py")):
        print("error: run from the root of a stonedual checkout "
              "(src/stonedual not found)", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        res, metrics, detail, consistent = measure(root, args, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for err in res["errors"]:
        print(f"failed op: {err}", file=sys.stderr)
    detail.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  ops_attempted=res["attempted"],
                  ops_failed_frac=res["failed"] / res["attempted"],
                  verdicts_match=consistent, stages=res["stages"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": res["failed"] == 0 and consistent,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
