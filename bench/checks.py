"""Output checks for each CLI stage; a failed check raises CheckError.

The checks read only the artifact files, with numpy and the stdlib, so a
change to spescreen cannot loosen them.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np


class CheckError(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckError(message)


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _xyz_positions(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n = int(lines[0])
    return np.array([[float(x) for x in ln.split()[1:4]]
                     for ln in lines[2:2 + n]])


def manifest(out_dir, stage):
    path = os.path.join(out_dir, f"{stage}_manifest.json")
    require(os.path.isfile(path), f"{stage}: no stage manifest")
    data = _json(path)
    require(data.get("stage") == stage, f"{stage}: manifest names another stage")
    for out in data["outputs"]:
        require(os.path.isfile(out), f"{stage}: listed output {out} missing")


def similarity(out_dir, ids, reference):
    rows = _csv_rows(os.path.join(out_dir, "ranking.csv"))
    require(rows[0] == ["id", "tanimoto"], "similarity: bad ranking header")
    body = rows[1:]
    ranked = [r[0] for r in body]
    require(len(ranked) == len(ids) and set(ranked) == set(ids),
            "similarity: every row must be ranked exactly once")
    sims = np.array([float(r[1]) for r in body])
    require(np.all(np.diff(sims) <= 0.0), "similarity: ranking not descending")
    require(body[0] == [reference, "1.000000"],
            "similarity: reference must rank first at 1.000000")
    hist = _json(os.path.join(out_dir, "histogram.json"))
    require(sum(hist["counts"]) == len(ids), "similarity: histogram count")
    manifest(out_dir, "similarity")


def map_stage(out_dir, ids):
    rows = _csv_rows(os.path.join(out_dir, "map.csv"))
    require(rows[0] == ["x", "y", "cluster", "id"], "map: bad header")
    body = rows[1:]
    require(sorted(r[3] for r in body) == sorted(ids),
            "map: expected one row per id")
    xy = np.array([[float(r[0]), float(r[1])] for r in body])
    require(np.all(np.isfinite(xy)), "map: non-finite coordinates")
    for r in body:
        int(r[2])
    manifest(out_dir, "map")


def embed(out_dir, host_atoms, emitter_atoms, cutoff, min_removed,
          max_removed, per_count, binding):
    data = _json(os.path.join(out_dir, "embedding.json"))
    accepted = data["accepted"]
    require(accepted, "embed: no accepted trials")
    counts = {}
    for rec in accepted:
        k = rec["removed_count"]
        require(min_removed <= k <= max_removed, "embed: removed count range")
        counts[k] = counts.get(k, 0) + 1
        require(rec["n_atoms"] == rec["n_host_atoms"] + emitter_atoms,
                "embed: atom bookkeeping")
        # monoatomic host: one removed molecule is one removed atom
        require(host_atoms - rec["n_host_atoms"] == k,
                "embed: whole-molecule removal count")
        pos = _xyz_positions(os.path.join(out_dir,
                                          os.path.basename(rec["xyz"])))
        hp, ep = pos[:rec["n_host_atoms"]], pos[rec["n_host_atoms"]:]
        d = np.linalg.norm(hp[:, None] - ep[None, :], axis=2)
        require(d.min() >= cutoff, "embed: emitter overlaps the host")
        require(np.all(ep.min(0) > hp.min(0)) and np.all(ep.max(0) < hp.max(0)),
                "embed: emitter not contained in the host")
        if binding:
            require(np.isfinite(rec.get("binding_energy_eV", np.nan)),
                    "embed: binding energy not finite")
    require(max(counts.values()) <= per_count, "embed: per-count cap")
    manifest(out_dir, "embed")


def modes(out_dir, n_atoms, name="modes.json", tol=1e-8):
    data = _json(os.path.join(out_dir, name))
    freqs = np.asarray(data["frequencies_cm1"], dtype=float)
    vecs = np.asarray(data["modes"], dtype=float)
    n3 = 3 * n_atoms
    require(freqs.shape == (n3,) and np.all(np.isfinite(freqs)),
            "modes: expected 3N finite frequencies")
    require(vecs.shape == (n3, n3), "modes: mode matrix shape")
    err = np.abs(vecs @ vecs.T - np.eye(n3)).max()
    require(err <= tol, f"modes: mode matrix not orthonormal ({err:.2e})")
    manifest(out_dir, "modes")


def vibronic(out_dir, n_modes, name="vibronic.json"):
    data = _json(os.path.join(out_dir, name))
    for key in ("g", "s_projection", "huang_rhys", "weighted_huang_rhys"):
        arr = np.asarray(data[key], dtype=float)
        require(arr.shape == (n_modes,) and np.all(np.isfinite(arr)),
                f"vibronic: {key} shape or finiteness")
    for key in ("svc", "sum_g", "sum_weighted_hr", "direct_fc"):
        require(np.isfinite(data[key]), f"vibronic: {key} not finite")
    manifest(out_dir, "vibronic")


def spin(out_dir):
    data = _json(os.path.join(out_dir, "spin.json"))
    for key in ("soc", "rsoc", "gssoc"):
        require(np.isfinite(data[key]) and data[key] >= 0.0,
                f"spin: {key} must be finite and >= 0")
    manifest(out_dir, "spin")


def stark(out_dir, n_fields):
    data = _json(os.path.join(out_dir, "stark.json"))
    require(np.isfinite(data["a_mhz_per_kvcm"])
            and np.isfinite(data["b_mhz_per_kvcm2"]), "stark: coefficients")
    require(len(data["shifts"]) == n_fields, "stark: one shift per field")
    manifest(out_dir, "stark")


def _labels(out_dir, ids, header):
    rows = _csv_rows(os.path.join(out_dir, "labels.csv"))
    require(rows[0] == header, "labels: bad header")
    body = rows[1:]
    require([r[0] for r in body] == list(ids), "labels: one row per record")
    good = [int(r[1]) for r in body]
    require(set(good) <= {0, 1}, "labels: labels must be 0/1")
    return body


def label(out_dir, ids):
    _labels(out_dir, ids, ["id", "label"])
    manifest(out_dir, "label")


def classify(out_dir, ids):
    body = _labels(out_dir, ids, ["id", "label", "probability"])
    p = np.array([float(r[2]) for r in body])
    require(np.all((p > 0.0) & (p < 1.0)), "classify: probability outside (0, 1)")
    manifest(out_dir, "classify")


REPORT_FILES = (
    ["table1.csv", "table1.json", "fig4_pca.csv", "fig4_grid.csv"]
    + [f"fig3_{m}.csv" for m in ("soc", "rsoc", "gssoc", "svc", "e_bind_eV",
                                  "fosc_em", "lambda_em_nm")]
)


def report(out_dir, n_records, with_vibronic):
    names = REPORT_FILES + (["fig5_svc_vs_hr.csv", "fig6_svc_vs_g.csv"]
                            if with_vibronic else [])
    for name in names:
        require(os.path.isfile(os.path.join(out_dir, name)),
                f"report: {name} missing")
    require(len(_csv_rows(os.path.join(out_dir, "table1.csv"))) == n_records + 1,
            "report: table1 row count")
    manifest(out_dir, "report")
