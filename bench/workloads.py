"""Workload definitions: generated inputs plus the ordered CLI stage calls.

Every workload runs the six timed stages (`TIMED_STAGES`), so every
end-to-end metric exists on every workload. The stages a workload is about
run on its seeded inputs at the sizes below; the others run as small probes
on fixed inputs, chosen to stay off the heavy layers: chains-only SMILES,
an embed without relaxation, a 16-atom cluster, a short record table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import checks
import inputs

SIZES = {
    "screen_rows": 120,        # SMILES rows, about 30% fused PAHs
    "embed_side": 3,           # Ar host of side**3 atoms
    "embed_per_count": 3,      # accepted trials per removed count (2 and 3)
    "embed_max_trials": 4000,
    "complex_cells": (4, 3, 3),
    "candidate_records": 160,
    "record_jitter": 0.01,     # relative, seeded, on a fixed base table
    "probe_rows": 160,
    "probe_map_rows": 60,
    "probe_records": 40,
    "probe_side": 4,
    "probe_per_count": 40,
    "probe_cluster": (4, 2, 2),
}
PROBE_SEED = 0
EMBED = {"cutoff": 2.0, "min_removed": 2, "max_removed": 3,
         "placement_seed": 7}
LAMBDA_HOST = 550.0
TIMED_STAGES = ("similarity", "map", "embed", "modes", "classify", "report")
CLI_STAGES = TIMED_STAGES[:4] + ("vibronic", "spin", "stark", "label") \
    + TIMED_STAGES[4:]


@dataclass
class Call:
    stage: str                # CLI subcommand
    argv: list                # arguments after the global flags
    check: object             # callable(out_dir) raising CheckError
    out: str                  # output directory, relative to the work dir
    seed: int = 0
    probe: bool = False


@dataclass
class Workload:
    calls: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)   # file -> digest and size


def _out(name):
    return os.path.join("out", name)


def _smiles_calls(w, rows, path, prefix, probe,
                  stages=("similarity", "map")):
    inputs.write_smiles_table(rows, path)
    w.inputs[path] = inputs.describe(path, rows=len(rows),
                                     pah_rows=sum(r[1].startswith("c")
                                                  for r in rows[1:]))
    ids = [r[0] for r in rows]
    ref = rows[0][0]
    perplexity = "30" if len(rows) > 100 else "5"
    if "similarity" in stages:
        w.calls.append(Call(
            "similarity", ["--smiles", path, "--reference", ref],
            lambda d: checks.similarity(d, ids, ref),
            _out(prefix + "similarity"), probe=probe))
    if "map" in stages:
        w.calls.append(Call(
            "map", ["--smiles", path, "--perplexity", perplexity],
            lambda d: checks.map_stage(d, ids), _out(prefix + "map"),
            seed=4, probe=probe))


def _embed_call(w, side, per_count, max_trials, seed, prefix, lj, probe):
    """Embed an Ar dimer into a cubic Ar host.

    The seed permutes the host's atom order and shifts it by a lattice
    vector; the placement seed of the stage stays fixed. Every seed thus
    asks for the same relaxations up to rounding: with a seeded placement
    the L-BFGS iteration count, and the stage time with it, spreads by 14%
    over ten seeds.
    """
    positions, cell = inputs.cubic_lattice(side)
    rng = np.random.default_rng(seed)
    positions = positions[rng.permutation(len(positions))]
    positions = positions + cell[0, 0] / side * rng.integers(-3, 4, size=3)
    host = f"in/{prefix}host.xyz"
    emitter = f"in/{prefix}emitter.xyz"
    inputs.write_xyz(host, ["Ar"] * len(positions), positions, cell)
    inputs.write_xyz(emitter, ["Ar", "Ar"], np.array([[0, 0, 0], [1.2, 0, 0]]))
    w.inputs[host] = inputs.describe(host, atoms=len(positions))
    w.inputs[emitter] = inputs.describe(emitter, atoms=2)
    argv = ["--host", host, "--emitter", emitter,
            "--cutoff", str(EMBED["cutoff"]),
            "--min-removed", str(EMBED["min_removed"]),
            "--max-removed", str(EMBED["max_removed"]),
            "--per-count", str(per_count),
            "--max-trials", str(max_trials)]
    if lj:
        argv += ["--lj-params", _lj(w, "in/ar_lj.json", inputs.AR_LJ)]
    w.calls.append(Call(
        "embed", argv,
        lambda d: checks.embed(d, len(positions), 2, EMBED["cutoff"],
                               EMBED["min_removed"], EMBED["max_removed"],
                               per_count, lj),
        _out(prefix + "embed"), seed=EMBED["placement_seed"], probe=probe))


def _lj(w, path, params):
    inputs.write_json(params, path)
    w.inputs[path] = inputs.describe(path)
    return path


def _modes_call(w, path, elements, positions, prefix, probe, cell=None):
    inputs.write_xyz(path, elements, positions, cell)
    w.inputs[path] = inputs.describe(path, atoms=len(elements))
    lj = _lj(w, "in/lj.json", inputs.AR_C_LJ)
    n = len(elements)
    w.calls.append(Call("modes", ["--structure", path, "--lj-params", lj],
                        lambda d: checks.modes(d, n), _out(prefix + "modes"),
                        probe=probe))


def _records_calls(w, rows, path, prefix, probe, vibronic_dir=None):
    inputs.write_candidates(rows, path)
    w.inputs[path] = inputs.describe(path, records=len(rows))
    ids = [r[0] for r in rows]
    common = ["--records", path, "--lambda-host", str(LAMBDA_HOST)]
    report_argv = common + (["--vibronic-dir", vibronic_dir]
                            if vibronic_dir else [])
    w.calls += [
        Call("classify", common, lambda d: checks.classify(d, ids),
             _out(prefix + "classify"), probe=probe),
        Call("report", report_argv,
             lambda d: checks.report(d, len(ids), vibronic_dir is not None),
             _out(prefix + "report"), probe=probe),
    ]


def _probes(w, stages):
    """Small fixed-input calls for the timed stages a workload is not about.

    "similarity" brings the map probe along, "classify" the report probe.
    """
    rng = np.random.default_rng(PROBE_SEED)
    if "similarity" in stages:
        rows = [("r0000", "CC(C)CO")] + [
            (f"r{k:04d}", inputs.random_chain(rng))
            for k in range(1, SIZES["probe_rows"])]
        _smiles_calls(w, rows, "in/probe_table.tsv", "probe_", True,
                      ("similarity",))
        _smiles_calls(w, rows[:SIZES["probe_map_rows"]],
                      "in/probe_map_table.tsv", "probe_", True, ("map",))
    if "embed" in stages:
        _embed_call(w, SIZES["probe_side"], SIZES["probe_per_count"], 1500,
                    PROBE_SEED, "probe_", False, True)
    if "modes" in stages:
        grid = np.array([[i, j, k] for i in range(SIZES["probe_cluster"][0])
                         for j in range(SIZES["probe_cluster"][1])
                         for k in range(SIZES["probe_cluster"][2])]) * 3.8
        _modes_call(w, "in/probe_cluster.xyz", ["Ar"] * len(grid), grid,
                    "probe_", True)
    if "classify" in stages:
        rows = inputs.candidate_rows(rng, SIZES["probe_records"])
        _records_calls(w, rows, "in/probe_records.csv", "probe_", True)


def screen(seed):
    w = Workload()
    rows = inputs.smiles_rows(seed, SIZES["screen_rows"])
    _smiles_calls(w, rows, "in/table.tsv", "", False)
    _probes(w, ("embed", "modes", "classify"))
    return w


def embed(seed):
    w = Workload()
    _probes(w, ("similarity", "modes", "classify"))
    _embed_call(w, SIZES["embed_side"], SIZES["embed_per_count"],
                SIZES["embed_max_trials"], seed, "", True, False)
    return w


def candidates(seed):
    w = Workload()
    rng = np.random.default_rng(seed)
    _probes(w, ("similarity", "embed"))
    _modes_call(w, "in/c6.xyz", ["C"] * 6, inputs.benzene_ring(), "", False)
    elements, positions, cell = inputs.monoclinic_complex(
        rng, SIZES["complex_cells"])
    n = len(elements)
    _modes_call(w, "in/complex.xyz", elements, positions, "complex_", False,
                cell)

    ring_xyz = inputs.benzene_ring()
    excited = ring_xyz * (1.0 + rng.uniform(0.01, 0.03))
    forces = rng.normal(scale=0.05, size=(6, 3))
    inputs.write_xyz("in/r_ground.xyz", ["C"] * 6, ring_xyz)
    inputs.write_xyz("in/r_excited.xyz", ["C"] * 6, excited)
    inputs.write_json(forces.round(8).tolist(), "in/forces.json")
    states = inputs.state_table(rng)
    inputs.write_json(states, "in/states.json")
    fields = [str(round(x, 3)) for x in rng.uniform(-50, 50, size=4)]
    for path in ("in/r_ground.xyz", "in/r_excited.xyz", "in/forces.json",
                 "in/states.json"):
        w.inputs[path] = inputs.describe(path)
    vib_dir = _out("vibronic")
    w.calls += [
        Call("vibronic", ["--isolated", os.path.join(_out("modes"), "modes.json"),
                          "--embedded", os.path.join(_out("complex_modes"),
                                                     "modes.json"),
                          "--forces", "in/forces.json",
                          "--emitter-atoms", f"{n - 6}:{n}",
                          "--r-ground", "in/r_ground.xyz",
                          "--r-excited", "in/r_excited.xyz",
                          "--out", "c0000.json"],
             lambda d: checks.vibronic(d, 18, "c0000.json"), vib_dir),
        Call("spin", ["--states", "in/states.json"], checks.spin, _out("spin")),
        Call("stark", ["--delta-mu", f"{rng.uniform(0.03, 0.08):.4f}",
                       "--delta-alpha", f"{rng.uniform(500, 700):.2f}"]
             + [a for f in fields for a in ("--field", f)],
             lambda d: checks.stark(d, len(fields)), _out("stark")),
    ]
    base = inputs.candidate_rows(np.random.default_rng(PROBE_SEED),
                                 SIZES["candidate_records"])
    rows = inputs.jittered_rows(base, rng, SIZES["record_jitter"])
    ids = [r[0] for r in rows]
    w.calls.append(Call("label", ["--records", "in/records.csv",
                                  "--lambda-host", str(LAMBDA_HOST)],
                        lambda d: checks.label(d, ids), _out("label")))
    _records_calls(w, rows, "in/records.csv", "", False, vibronic_dir=vib_dir)
    return w


WORKLOADS = {"screen": screen, "embed": embed, "candidates": candidates}


def build(name, seed):
    """Write the workload's inputs under ./in and return its stage calls."""
    os.makedirs("in", exist_ok=True)
    return WORKLOADS[name](seed)
