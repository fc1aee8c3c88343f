"""Run one workload in a fresh interpreter and print its result as JSON.

    PYTHONPATH=src python3 perfbench/worker.py --workload corpus --seed 1 \\
        --seconds 6 --mode run --root .

``--mode setup`` stops after set-up, ``run`` also runs the timed phase,
and ``trace`` runs it with spans around the program's public functions
and writes them to ``.perfbench/trace-<workload>-<seed>.json.gz``.
``run.py`` starts this script; it is not meant to be called directly.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402


def _verdict_digest(verdicts):
    text = json.dumps(verdicts, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    import stonedual
    src = os.path.join(root, "src", "stonedual")
    if os.path.dirname(os.path.abspath(stonedual.__file__)) != src:
        sys.exit(f"stonedual was imported from {stonedual.__file__}, "
                 f"not from {src}")
    from workloads import WORKLOADS, Ops
    setup, run = WORKLOADS[args.workload]

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    scratch = os.path.join(root, ".perfbench")
    workdir = os.path.join(scratch, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        base = f"{args.workload}:{args.seed}"
        ctx = setup(random.Random(base + ":setup"), workdir)
        setup_s = perf_counter() - T_START
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            ops = Ops(tracer)
            stages = run(ctx, ops, random.Random(base + ":run"), args.seconds)
            result.update(
                wall_s=ops.timed_s, op_ms=ops.sample_ms, stages=stages,
                attempted=ops.attempted, failed=ops.failed,
                errors=ops.errors[:20],
                verdicts=_verdict_digest(ops.verdicts),
                peak_rss_mb=resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        result["layers"], result["timed_self_s"] = tracer.layer_metrics()
        trace_path = os.path.join(
            scratch, f"trace-{args.workload}-{args.seed}.json.gz")
        tracer.write(trace_path)
        result["trace_file"] = os.path.relpath(trace_path, root)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
