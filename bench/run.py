"""Stage-level benchmark of the spescreen CLI pipeline.

Run from the root of a spescreen checkout:

    python3 bench/run.py --workload screen --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from --seed, then runs the workload's
CLI stages in this process through `spescreen.cli.main`, pass after pass,
for --seconds seconds (closed loop, one stage at a time). Each stage's
artifacts are checked after every pass. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` (stage invocations)
and `metrics`, the end-to-end metrics with --trace 0 and the per-layer
metrics with --trace 1. A full record (machine, input digests and sizes,
artifact digests, every pass) goes to .bench_results/.
"""

from __future__ import annotations

import os

# one process, single-threaded BLAS/OpenMP pools: set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse          # noqa: E402
import contextlib        # noqa: E402
import io                # noqa: E402
import json              # noqa: E402
import platform          # noqa: E402
import resource          # noqa: E402
import shutil            # noqa: E402
import statistics        # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402
import time              # noqa: E402

import numpy as np       # noqa: E402

import checks            # noqa: E402
import inputs            # noqa: E402
import workloads         # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")
LAYERS = ("chem", "ml", "potential", "embedding", "structure", "vibronic",
          "spectro")
# nominal time of the reference loop: stage seconds are rescaled to it
REFERENCE_S = 0.02
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import spescreen.cli; "
                  "print(repr(time.perf_counter() - t))")


def import_seconds():
    """Seconds to import spescreen.cli in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET],
                         env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    return float(out.strip().splitlines()[-1])


def reference_seconds():
    """Time a fixed mix of Python and numpy work (no spescreen code).

    The sandbox's speed drifts by a third over minutes as other tenants load
    the host. This loop runs before and after every stage call; the call's
    time is rescaled by REFERENCE_S over the mean of the two loop times.
    Like the stages, the loop mixes interpreter work, small-array numpy
    calls and dense linear algebra on a working set of about 1 MB.
    """
    rng = np.random.default_rng(0)
    pts = rng.random((64, 3))
    big = rng.random((160, 160))
    spd = big @ big.T + 160.0 * np.eye(160)
    t0 = time.perf_counter()
    acc = 0.0
    seen = {}
    for i in range(2500):
        d = pts[i % 64] - pts[(i * 7) % 64]
        acc += float(np.sqrt(d @ d))
        seen[(i % 97, i % 13)] = seen.get((i % 97, i % 13), 0) + 1
    for i in range(20000):
        acc += (i * 31 % 17) ** 0.5
    for _ in range(3):
        diff = big[:, None, :8] - big[None, :, :8]
        acc += float(np.exp(-(diff ** 2).sum(axis=2)).sum())
        acc += float(np.linalg.cholesky(spd)[-1, -1])
    return time.perf_counter() - t0


def run_call(main, call):
    """One CLI invocation; returns (seconds, exit code, captured output)."""
    argv = ["--out-dir", call.out, "--seed", str(call.seed), call.stage]
    argv += call.argv
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            main.main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:    # any escape is a failed invocation
            code = getattr(exc, "exit_code", 1)
            buf.write(f"{type(exc).__name__}: {exc}\n")
        dt = time.perf_counter() - t0
    return dt, code, buf.getvalue()


def digest_dir(path):
    return {name: inputs.sha256_file(os.path.join(path, name))
            for name in sorted(os.listdir(path))}


def run_pass(main, workload, tracer=None):
    """Run every call once; returns per-call records."""
    if os.path.isdir("out"):
        shutil.rmtree("out")
    records = []
    reference = reference_seconds()
    for call in workload.calls:
        os.makedirs(call.out, exist_ok=True)
        if tracer is None:
            dt, code, text = run_call(main, call)
        else:
            dt, code, text = tracer.span(f"cli.{call.stage}", run_call, main,
                                         call)
        before, reference = reference, reference_seconds()
        error = None
        if code != 0:
            error = f"exit code {code}: {text.strip()[-500:]}"
        else:
            try:
                call.check(call.out)
            except (checks.CheckError, OSError, ValueError, KeyError,
                    IndexError) as exc:
                error = f"check failed: {exc}"
        records.append({"stage": call.stage, "out": call.out,
                        "probe": call.probe, "seconds": dt, "exit": code,
                        "scale": 2.0 * REFERENCE_S / (before + reference),
                        "error": error,
                        "digests": digest_dir(call.out) if error is None
                        else {}})
    return records


def stage_totals(records, rescale=False):
    """Seconds per stage in one pass, raw or rescaled to REFERENCE_S."""
    totals = {}
    for rec in records:
        dt = rec["seconds"] * (rec["scale"] if rescale else 1.0)
        totals[rec["stage"]] = totals.get(rec["stage"], 0.0) + dt
    return totals


def machine_block():
    from importlib.metadata import version
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": version("networkx"),
        "click": version("click"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (see bench/NOTES.md)."""
    total, self_time, calls, parent_calls = tracer.summary()
    c = tracer.counters
    m = {}

    def s(name):
        return total.get(name, 0.0)

    for name in ("chem.load_smiles_table", "chem.parse_smiles",
                 "chem.morgan_fingerprint", "chem.tanimoto", "ml.tsne",
                 "ml.calibrate_bandwidths", "ml.hdbscan", "ml.gpc_train",
                 "ml.gpc_predict", "ml.pca", "potential.energy",
                 "potential.forces", "potential.hessian_finite_difference",
                 "embedding.embed_emitter", "embedding.select_most_stable",
                 "structure.parse_xyz", "structure.identify_molecules",
                 "structure.write_xyz", "vibronic.normal_modes",
                 "vibronic.vibronic_report", "vibronic.save_mode_set",
                 "vibronic.load_mode_set", "spectro.read_candidates_csv",
                 "spectro.write_candidates_csv",
                 "spectro.load_excited_state_table"):
        m[f"{name}.s"] = s(name)
    for name in ("chem.parse_smiles", "chem.tanimoto", "potential.energy",
                 "potential.forces", "potential.relax"):
        m[f"{name}.calls"] = calls.get(name, 0)
    rows = c["chem.load_smiles_table.rows"]
    m["chem.parses_per_row"] = calls.get("chem.parse_smiles", 0) / rows \
        if rows else 0.0
    n_iter = c["ml.tsne.n_iter"]
    m["ml.tsne.n_iter"] = n_iter
    m["ml.tsne.iter_ms"] = 1e3 * (s("ml.tsne") - s("ml.calibrate_bandwidths")
                                  - s("ml.perplexity_error")) / n_iter \
        if n_iter else 0.0
    m["ml.rbf_kernel.calls"] = (parent_calls.get(("ml.rbf_kernel",
                                                  "ml.gpc_train"), 0)
                                - calls.get("ml.gpc_train", 0))
    pairs = c["potential.energy.pairs"] + c["potential.forces.pairs"]
    m["potential.ns_per_pair"] = 1e9 * (s("potential.energy")
                                        + s("potential.forces")) / pairs \
        if pairs else 0.0
    iters = c["potential.relax.iterations"]
    m["potential.relax.iterations"] = iters
    m["potential.relax.unconverged"] = c["potential.relax.unconverged"]
    m["potential.evals_per_iteration"] = (
        (calls.get("potential.energy", 0) + calls.get("potential.forces", 0))
        / iters if iters else 0.0)
    drawn = parent_calls.get(("structure.rotate", "embedding.embed_emitter"), 0)
    accepted = c["embedding.embed_emitter.accepted"]
    m["embedding.trials_drawn"] = drawn
    m["embedding.accepted"] = accepted
    m["embedding.accept_ratio"] = accepted / drawn if drawn else 0.0
    for stage in workloads.CLI_STAGES:
        m[f"cli.{stage}.self_s"] = self_time.get(f"cli.{stage}", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_time.items()
                                   if k.startswith(layer + "."))
    m["trace.workload_s"] = sum(t1 - t0 for _, t0, t1, parent in tracer.spans
                                if parent < 0)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spescreen", "cli.py")):
        print(f"error: no spescreen sources under {SRC}; run from the root "
              "of a spescreen checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spescreen.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported spescreen from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    os.chdir(work)
    try:
        workload = workloads.build(args.workload, args.seed)
        passes, setup_samples = measure(cli, workload, args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    return report(passes, setup_samples, workload, args)


def measure(cli, workload, args):
    """Run passes back to back until --seconds have elapsed.

    An untraced run takes one fresh-interpreter import sample after each
    pass, so set-up samples spread over the run like the stage samples. A
    traced run alternates untraced and traced passes and reports the traced
    pass with the median total.
    """
    tracer = Tracer() if args.trace else None
    passes, setup_samples, spans = [], [], []
    if tracer is None:
        import_seconds()    # the first import compiles bytecode
    min_passes = 2 if tracer is not None else 3
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(passes) < min_passes:
        traced = tracer is not None and len(passes) % 2 == 1
        layers = None
        if traced:
            tracer.reset()
            with tracer:
                records = run_pass(cli, workload, tracer)
            layers = layer_metrics(tracer)
            spans.append(tracer.spans)
        else:
            records = run_pass(cli, workload)
        passes.append({"traced": traced, "calls": records, "layers": layers})
        if tracer is None:
            before = reference_seconds()
            dt = import_seconds()
            scale = 2.0 * REFERENCE_S / (before + reference_seconds())
            setup_samples.append({"seconds": dt, "scale": scale})
    if tracer is not None:
        # report the traced pass with the median total, so its layer self
        # times add up to its trace.workload_s exactly
        traced = [p for p in passes if p["traced"]]
        order = sorted(range(len(traced)),
                       key=lambda k: traced[k]["layers"]["trace.workload_s"])
        pick = order[(len(order) - 1) // 2]
        for k, p in enumerate(traced):
            p["reported"] = k == pick
        tracer.spans = spans[pick]
        os.makedirs(RESULTS, exist_ok=True)
        tracer.dump(os.path.join(
            RESULTS, f"spans-{args.workload}-{args.seed}.jsonl"))
    return passes, setup_samples


def report(passes, setup_samples, workload, args):
    calls = [rec for p in passes for rec in p["calls"]]
    # identical config and seed must reproduce identical artifacts
    first = passes[0]["calls"]
    for p in passes[1:]:
        for rec, ref in zip(p["calls"], first):
            if rec["error"] is None and rec["digests"] != ref["digests"]:
                rec["error"] = "artifacts differ from the first pass"
    failed = sum(rec["error"] is not None for rec in calls)
    if args.trace:
        values = dict(next(p for p in passes if p.get("reported"))["layers"])
        untraced_s = statistics.median(sum(stage_totals(p["calls"]).values())
                                       for p in passes if not p["traced"])
        values["trace.untraced_workload_s"] = untraced_s
        values["trace.overhead_s"] = values["trace.workload_s"] - untraced_s
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    else:
        totals = [stage_totals(p["calls"], rescale=True) for p in passes]
        workload_s = statistics.median(sum(t.values()) for t in totals)
        metrics = {f"{stage}_s": {
            "value": statistics.median(t[stage] for t in totals), "unit": "s"}
            for stage in workloads.TIMED_STAGES}
        metrics["workload_s"] = {"value": workload_s, "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(
            x["seconds"] * x["scale"] for x in setup_samples), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB"}
        metrics["ok_frac"] = {"value": 1.0 - failed / len(calls),
                              "unit": "ratio"}
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_block(),
        "sizes": dict(workloads.SIZES),
        "inputs": workload.inputs,
        "calls": [{"stage": c.stage, "out": c.out, "probe": c.probe,
                   "argv": c.argv, "seed": c.seed} for c in workload.calls],
        "setup_samples": setup_samples, "passes": passes, "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS,
                        f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)
    for rec in calls:
        if rec["error"] is not None:
            print(f"[{rec['stage']} -> {rec['out']}] {rec['error']}",
                  file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_pair"):
        return "ns"
    if name.endswith(("_ratio", "_per_row", "_per_iteration")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
