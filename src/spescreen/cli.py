"""Command-line pipeline driver.

Subcommands cover the screening stages: similarity ranking, candidate
maps, guest-host embedding, normal modes, vibronic metrics, spin-orbit
aggregates, Stark coefficients, labeling, classification, and report
assembly. A plain-text INI config supplies option defaults through
click's default_map: `[global]` keys set the group's options and each
`[<stage>]` section sets that stage's, under the flag name with dashes
turned into underscores. A flag beats the config, which beats the built-in
default. Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys

import click
import numpy as np

from . import __version__
from .chem import (
    load_smiles_table,
    morgan_fingerprint,
    parse_smiles,
    rank_by_similarity,
    similarity_summary,
    tanimoto_matrix,
)
from .embedding import EmbeddingConfig, embed_emitter, select_most_stable, write_manifest
from .jsonio import write_json
from .ml import feature_matrix, gpc_predict, gpc_train, hdbscan, label_good, pca, tsne
from .potential import (
    ExternalPotential,
    LennardJonesPotential,
    max_force_norm,
    relax as relax_structure,
)
from .spectro import (
    CANDIDATE_COLUMNS,
    StarkInput,
    gssoc_metric,
    load_excited_state_table,
    read_candidates_csv,
    rsoc_metric,
    soc_metric,
    stark_coefficients,
    write_candidates_csv,
)
from .structure import coincident_pair, parse_xyz
from .vibronic import load_mode_set, normal_modes, save_mode_set, vibronic_report

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (np.linalg.LinAlgError, FloatingPointError, ArithmeticError)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, payload):
    """Write `payload` as indented, key-sorted strict JSON."""
    write_json(path, payload, indent=2, sort_keys=True)


def _write_stage_manifest(ctx, inputs, params):
    """Record inputs (with hashes), parameters, and the outputs `_out`
    recorded for a stage."""
    stage = ctx.info_name
    manifest = {
        "stage": stage,
        "version": __version__,
        "inputs": {
            name: {"path": str(p), "sha256": _sha256(p)}
            for name, p in inputs.items() if p is not None
        },
        "parameters": params,
        "outputs": sorted(str(o) for o in ctx.obj["outputs"]),
    }
    _write_json(os.path.join(ctx.obj["out_dir"], f"{stage}_manifest.json"),
                manifest)


def _write_csv(path, header, rows):
    """Write one header row and then every row of `rows` as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _gpc_params(model):
    """Every scalar field of a GPCModel (hyperparameters and deterministic
    fit diagnostics) for a stage manifest; array fields are skipped."""
    values = ((f.name, getattr(model, f.name))
              for f in dataclasses.fields(model))
    return {name: v for name, v in values if not isinstance(v, np.ndarray)}


def _stage(func):
    """Run a stage body, write its manifest, and map its exceptions onto
    the documented exit codes.

    The body takes the click context, records each path it writes through
    `_out`, and returns (inputs, parameters, message). Only then is
    `<stage>_manifest.json` written and the message echoed. Numerical
    failures exit 3; every other exception exits 2 with a one-line
    message, so no stage ends in a traceback with exit 1, and a stage
    that fails leaves no manifest.
    """

    @click.pass_context
    @functools.wraps(func)
    def wrapper(ctx, *args, **kwargs):
        stage = ctx.info_name
        ctx.obj["outputs"] = []
        try:
            inputs, params, message = func(ctx, *args, **kwargs)
            _write_stage_manifest(ctx, inputs, params)
            click.echo(message)
        except _NUMERICAL_ERRORS as exc:
            click.echo(f"[{stage}] numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
            click.echo(f"[{stage}] validation error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except Exception as exc:
            click.echo(f"[{stage}] error: {type(exc).__name__}: {exc}",
                       err=True)
            sys.exit(EXIT_VALIDATION)

    return wrapper


def _out(ctx, name):
    """Path of output `name` in the out-dir, recorded for the manifest."""
    path = os.path.join(ctx.obj["out_dir"], name)
    ctx.obj["outputs"].append(path)
    return path


def _read_config(ctx, param, path):
    """Eager --config callback: load the INI file into click's default_map.

    `[global]` keys go to the top level, where the group's options read
    them; each other section goes under the stage of that name. A section
    that names no stage, or a key that names no option of its stage (of
    the group, for `[global]`), is rejected, so a typo cannot fall back to
    the default unnoticed.
    """
    if path is None:
        return
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise click.BadParameter(str(exc), ctx, param) from None
    for name, section in sections.items():
        command = ctx.command if name == "global" \
            else ctx.command.commands.get(name)
        if command is None:
            raise click.BadParameter(f"[{name}] names no stage", ctx, param)
        known = {p.name for p in command.params if p.expose_value}
        for key in section:
            if key not in known:
                raise click.BadParameter(f"[{name}] {key} names no option",
                                         ctx, param)
    ctx.default_map = {**sections.pop("global", {}), **sections}


def _finite_positive(ctx, param, value):
    if not (np.isfinite(value) and value > 0):
        raise click.BadParameter(f"{value} is not finite and positive",
                                 ctx, param)
    return value


# options that two or three stages share, declared once
_FMAX = click.option("--fmax", type=float, default=0.01, show_default=True,
                     callback=_finite_positive,
                     help="Force tolerance (eV/A) of relaxation and the "
                          "stationary flag.")
_LJ_PARAMS = click.option("--lj-params", type=click.Path(exists=True),
                          help="JSON {\"C,C\": [eps_eV, sigma_A], ...}.")
_NBITS = click.option("--nbits", type=int, default=1024, show_default=True)
_RADIUS = click.option("--radius", type=int, default=2, show_default=True)
_RECORDS = click.option("--records", type=click.Path(exists=True),
                        required=True)
_NO_SOC = click.option("--no-soc", is_flag=True, default=False,
                       help="Drop the SOC condition from the labeling rule.")
_LAMBDA_HOST = click.option("--lambda-host", type=float, required=True,
                            help="Host absorption wavelength threshold (nm).")
_LABELS_OUT = click.option("--out", default="labels.csv", show_default=True)


@click.group()
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              is_eager=True, expose_value=False, callback=_read_config,
              help="INI config: [global] and one section per stage.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Global random seed.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Directory for stage outputs.")
@click.version_option(__version__)
@click.pass_context
def main(ctx, seed, out_dir):
    """Emitter-host screening pipeline."""
    os.makedirs(out_dir, exist_ok=True)
    ctx.obj = {"seed": seed, "out_dir": out_dir}


# --- similarity ------------------------------------------------------------

@main.command()
@click.option("--smiles", type=click.Path(exists=True), required=True,
              help="TSV/CSV with id and smiles columns.")
@click.option("--reference", required=True,
              help="Reference: an id from the table or a SMILES string.")
@_NBITS
@_RADIUS
@_stage
def similarity(ctx, smiles, reference, nbits, radius):
    """Rank a SMILES table by Tanimoto similarity to a reference."""
    entries, skipped = load_smiles_table(smiles)
    ref_graph = dict(entries).get(reference)
    if ref_graph is None:
        ref_graph = parse_smiles(reference)
    ref_fp = morgan_fingerprint(ref_graph, radius, nbits)
    database = [
        (cid, morgan_fingerprint(graph, radius, nbits))
        for cid, graph in entries
    ]
    ranked = rank_by_similarity(ref_fp, database)
    summary = similarity_summary(ranked)
    summary["skipped_rows"] = skipped

    _write_csv(_out(ctx, "ranking.csv"), ["id", "tanimoto"],
               ([cid, f"{sim:.6f}"] for cid, sim in ranked))

    sims = np.array([s for _, s in ranked])
    edges = np.linspace(0.0, 1.0, 21)
    counts, _ = np.histogram(sims, bins=edges)
    _write_json(_out(ctx, "histogram.json"), {
        "bin_edges": edges.tolist(),
        "counts": counts.tolist(),
        "summary": summary,
    })
    return ({"smiles": smiles},
            {"reference": reference, "nbits": nbits, "radius": radius},
            f"ranked {len(ranked)} entries ({skipped} skipped)")


# --- map -------------------------------------------------------------------

@main.command(name="map")
@click.option("--smiles", type=click.Path(exists=True), required=True)
@click.option("--perplexity", type=float, default=50.0, show_default=True)
@click.option("--min-cluster-size", type=int, default=5, show_default=True)
@_NBITS
@_RADIUS
@click.option("--out", default="map.csv", show_default=True)
@_stage
def map_cmd(ctx, smiles, perplexity, min_cluster_size, nbits, radius, out):
    """Embed fingerprints with t-SNE and cluster the 2D map."""
    entries, skipped = load_smiles_table(smiles)
    ids = [cid for cid, _ in entries]
    fps = [morgan_fingerprint(graph, radius, nbits) for _, graph in entries]
    d2 = (1.0 - tanimoto_matrix(fps, fps)) ** 2

    result = tsne(d2, perplexity=perplexity, seed=ctx.obj["seed"])
    clusters = hdbscan(result.embedding, min_cluster_size=min_cluster_size)
    off_target = [ids[i] for i in result.rows_off_target]
    if off_target:
        # flagged, not fatal: such a row (equidistant from all others, say)
        # has the same entropy at every bandwidth
        click.echo(f"[{ctx.info_name}] {len(off_target)} rows miss the "
                   "perplexity target by up to "
                   f"{result.perplexity_error:.3g} nats", err=True)

    _write_csv(_out(ctx, out), ["x", "y", "cluster", "id"], (
        [f"{xy[0]:.6f}", f"{xy[1]:.6f}", int(lab), cid]
        for xy, lab, cid in zip(result.embedding, clusters.labels, ids)
    ))
    return ({"smiles": smiles},
            {"perplexity": perplexity, "min_cluster_size": min_cluster_size,
             "nbits": nbits, "radius": radius, "seed": ctx.obj["seed"],
             "skipped_rows": skipped, "kl_divergence": result.kl_divergence,
             "n_iter": result.n_iter, "lr_halvings": result.lr_halvings,
             "perplexity_error": result.perplexity_error,
             "rows_off_target": off_target},
            f"mapped {len(ids)} entries into {clusters.n_clusters} clusters "
            f"(kl={result.kl_divergence:.4f})")


# --- embed -----------------------------------------------------------------

@main.command()
@click.option("--host", type=click.Path(exists=True), required=True)
@click.option("--emitter", type=click.Path(exists=True), required=True)
@click.option("--cutoff", type=float, default=1.0, show_default=True)
@click.option("--min-removed", type=int, default=2, show_default=True)
@click.option("--max-removed", type=int, default=5, show_default=True)
@click.option("--per-count", type=int, default=25, show_default=True)
@click.option("--max-trials", type=int, default=10000, show_default=True)
@_LJ_PARAMS
@_FMAX
@_stage
def embed(ctx, host, emitter, cutoff, min_removed, max_removed, per_count,
          max_trials, lj_params, fmax):
    """Stochastically embed the emitter into the host supercell.

    With --lj-params, each accepted structure is relaxed and its binding
    energy recorded.
    """
    cfg = EmbeddingConfig(overlap_cutoff=cutoff, min_removed=min_removed,
                          max_removed=max_removed,
                          structures_per_count=per_count,
                          max_trials=max_trials, seed=ctx.obj["seed"])
    host_structure = parse_xyz(host)
    emitter_structure = parse_xyz(emitter)
    counters = {}
    trials = embed_emitter(host_structure, emitter_structure, cfg,
                           counters=counters)

    binding = None
    if lj_params is not None:
        potential = LennardJonesPotential.from_json(lj_params)
        _, _, binding = select_most_stable(trials, potential, host_structure,
                                           emitter_structure, fmax=fmax,
                                           counters=counters)

    write_manifest(trials, _out(ctx, "embedding.json"), cfg,
                   binding_energies=binding,
                   xyz_paths=[_out(ctx, f"embedded_{k:04d}.xyz")
                              for k in range(len(trials))])
    return ({"host": host, "emitter": emitter, "lj_params": lj_params},
            {"cutoff": cfg.overlap_cutoff, "min_removed": cfg.min_removed,
             "max_removed": cfg.max_removed,
             "per_count": cfg.structures_per_count,
             "max_trials": cfg.max_trials, "seed": cfg.seed, "fmax": fmax,
             **counters},
            f"accepted {len(trials)} embedded structures")


# --- modes -----------------------------------------------------------------

@main.command()
@click.option("--structure", type=click.Path(exists=True), required=True)
@click.option("--potential-file", type=click.Path(exists=True),
              help="External single-point JSON with a Hessian.")
@_LJ_PARAMS
@click.option("--relax/--no-relax", default=False, show_default=True)
@_FMAX
@click.option("--out", default="modes.json", show_default=True)
@_stage
def modes(ctx, structure, potential_file, lj_params, relax, fmax, out):
    """Compute normal modes from an external or Lennard-Jones Hessian."""
    if (potential_file is None) == (lj_params is None):
        raise ValueError(
            "modes needs exactly one of --potential-file and --lj-params")
    if relax and potential_file is not None:
        # the file holds forces at its one geometry: nothing to relax on
        raise ValueError("--relax needs --lj-params, not --potential-file")
    geometry = parse_xyz(structure)
    pair = coincident_pair(geometry)
    if pair is not None:
        # the pair kernels would divide by r = 0
        raise ValueError(f"{structure}: atoms {pair[0]} and {pair[1]} are "
                         "at the same position")

    if potential_file is not None:
        potential = ExternalPotential(potential_file)
    else:
        potential = LennardJonesPotential.from_json(lj_params)

    params = {"relax": relax, "fmax": fmax}
    if relax:
        result = relax_structure(geometry, potential, fmax=fmax)
        params.update(relax_iterations=result.iterations,
                      relax_converged=result.converged)
        if not result.converged:
            raise FloatingPointError(
                f"relaxation stalled at max force {result.max_force:.3e}"
            )
        geometry = result.structure

    hessian = potential.hessian(geometry)
    modeset = normal_modes(hessian, geometry.masses)
    save_mode_set(modeset, _out(ctx, out))
    n_im = int((modeset.frequencies < 0).sum())
    # a Hessian describes vibrations only at a stationary point
    max_force = max_force_norm(potential.forces(geometry))
    params.update(n_atoms=len(geometry), n_imaginary=n_im,
                  hessian_asymmetry=float(np.abs(hessian - hessian.T).max()),
                  max_force=max_force, stationary=max_force <= fmax)
    return ({"structure": structure, "potential_file": potential_file,
             "lj_params": lj_params},
            params, f"{len(modeset.frequencies)} modes ({n_im} imaginary)")


# --- vibronic --------------------------------------------------------------

def _parse_atom_selection(spec, n):
    """'a:b' slice or comma list of indices; None means all atoms.

    Raises ValueError for a token that is not an integer, an empty
    selection, an index outside [0, n) or a repeated index.
    """
    if spec is None:
        return list(range(n))
    try:
        if ":" in spec:
            a, b = spec.split(":", 1)
            # a lazy range: a huge slice fails below without being built
            atoms = range(int(a or 0), int(b or n))
        else:
            atoms = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(
            f"atom selection {spec!r} has a token that is not an integer"
        ) from None
    if not atoms:
        raise ValueError(f"atom selection {spec!r} is empty")
    outside = next((i for i in atoms if not 0 <= i < n), None)
    if outside is not None:
        raise ValueError(
            f"atom selection {spec!r}: index {outside} is outside [0, {n})")
    if len(set(atoms)) != len(atoms):
        raise ValueError(f"atom selection {spec!r} repeats an index")
    return list(atoms)


@main.command()
@click.option("--isolated", type=click.Path(exists=True), required=True,
              help="Mode-set JSON of the isolated emitter.")
@click.option("--embedded", type=click.Path(exists=True), required=True,
              help="Mode-set JSON of the embedded complex.")
@click.option("--forces", type=click.Path(exists=True), required=True,
              help="JSON array of excited-state forces (N x 3).")
@click.option("--emitter-atoms",
              help="Emitter atom indices in the complex: 'a:b' or 'i,j,...'.")
@click.option("--r-ground", type=click.Path(exists=True), required=True,
              help="Ground-state emitter geometry (XYZ).")
@click.option("--r-excited", type=click.Path(exists=True), required=True,
              help="Excited-state emitter geometry (XYZ).")
@click.option("--out", default="vibronic.json", show_default=True)
@_stage
def vibronic(ctx, isolated, embedded, forces, emitter_atoms, r_ground,
             r_excited, out):
    """Mode projections, entropies, Huang-Rhys factors, and the FC metric."""
    iso_modes = load_mode_set(isolated)
    emb_modes = load_mode_set(embedded)
    with open(forces, encoding="utf-8") as fh:
        excited_forces = np.asarray(json.load(fh), dtype=float)
    if not np.isfinite(excited_forces).all():
        raise ValueError("forces must be finite")
    ground = parse_xyz(r_ground).positions
    excited = parse_xyz(r_excited).positions
    n_complex = emb_modes.modes.shape[1] // 3
    atoms = _parse_atom_selection(emitter_atoms, n_complex)

    report = vibronic_report(iso_modes, emb_modes, atoms, excited_forces,
                             ground, excited)
    _write_json(_out(ctx, out), {
        "g": report.g.tolist(),
        "s_projection": report.s_projection.tolist(),
        "huang_rhys": report.huang_rhys.tolist(),
        "weighted_huang_rhys": report.weighted_huang_rhys.tolist(),
        "svc": report.svc,
        "sum_g": report.sum_g,
        "sum_weighted_hr": report.sum_weighted_hr,
        "direct_fc": report.direct_fc,
    })
    return ({"isolated": isolated, "embedded": embedded, "forces": forces,
             "r_ground": r_ground, "r_excited": r_excited},
            {"emitter_atoms": emitter_atoms},
            f"svc={report.svc:.4f} direct_fc={report.direct_fc:.4f}")


# --- spin ------------------------------------------------------------------

@main.command()
@click.option("--states", type=click.Path(exists=True), required=True,
              help="Excited-state table JSON.")
@click.option("--out", default="spin.json", show_default=True)
@_stage
def spin(ctx, states, out):
    """Aggregate spin-orbit couplings into SOC / rSOC / gsSOC."""
    table = load_excited_state_table(states)
    payload = {
        "soc": soc_metric(table),
        "rsoc": rsoc_metric(table),
        "gssoc": (
            gssoc_metric(table) if table.gs_soc_t1_cm1 is not None else None
        ),
        "e_s1_eV": table.e_s1,
        "n_triplets": len(table.triplets),
    }
    _write_json(_out(ctx, out), payload)
    return ({"states": states}, {},
            f"soc={payload['soc']:.4f} rsoc={payload['rsoc']:.4f} "
            f"gssoc={payload['gssoc']}")


# --- stark -----------------------------------------------------------------

@main.command()
@click.option("--delta-mu", type=float, required=True,
              help="|dipole difference| in atomic units.")
@click.option("--delta-alpha", type=float, required=True,
              help="Polarizability difference in atomic units.")
@click.option("--field", type=float, multiple=True,
              help="Evaluate the shift at these fields (kV/cm); repeatable, "
                   "command line only.")
@click.option("--out", default="stark.json", show_default=True)
@_stage
def stark(ctx, delta_mu, delta_alpha, field, out):
    """Linear and quadratic Stark shift coefficients."""
    coeffs = stark_coefficients(StarkInput(delta_mu, delta_alpha))
    payload = {
        "a_mhz_per_kvcm": coeffs.a_mhz_per_kvcm,
        "b_mhz_per_kvcm2": coeffs.b_mhz_per_kvcm2,
        "shifts": [
            {"field_kv_cm": f, "shift_mhz": coeffs.shift_mhz(f)}
            for f in field
        ],
    }
    _write_json(_out(ctx, out), payload)
    return ({}, {"delta_mu": delta_mu, "delta_alpha": delta_alpha},
            f"a={coeffs.a_mhz_per_kvcm:.3f} MHz/(kV/cm) "
            f"b={coeffs.b_mhz_per_kvcm2:.4f} MHz/(kV/cm)^2")


# --- label / classify ------------------------------------------------------

def _read_records(records):
    candidates = read_candidates_csv(records)
    if not candidates:
        raise ValueError("record table is empty")
    return candidates


@main.command()
@_RECORDS
@_LAMBDA_HOST
@_NO_SOC
@_LABELS_OUT
@_stage
def label(ctx, records, lambda_host, no_soc, out):
    """Label candidates as good/bad emitters."""
    candidates = _read_records(records)
    good = label_good(candidates, lambda_host, include_soc=not no_soc)
    _write_csv(_out(ctx, out), ["id", "label"],
               ([rec.id, int(g)] for rec, g in zip(candidates, good)))
    return ({"records": records},
            {"lambda_host": lambda_host, "include_soc": not no_soc},
            f"labeled {int(good.sum())}/{len(candidates)} as good")


@main.command()
@_RECORDS
@_LAMBDA_HOST
@_NO_SOC
@_LABELS_OUT
@_stage
def classify(ctx, records, lambda_host, no_soc, out):
    """Label candidates and attach GPC class probabilities."""
    candidates = _read_records(records)
    good = label_good(candidates, lambda_host, include_soc=not no_soc)
    features = feature_matrix(candidates)
    model = gpc_train(features.values, good.astype(float))
    probs = gpc_predict(model, features.values)
    _write_csv(_out(ctx, out), ["id", "label", "probability"], (
        [rec.id, int(g), f"{p:.6f}"]
        for rec, g, p in zip(candidates, good, probs)
    ))
    return ({"records": records},
            {"lambda_host": lambda_host, "include_soc": not no_soc,
             **_gpc_params(model)},
            f"classified {len(candidates)} records (sigma2="
            f"{model.sigma2:.3g}, lengthscale={model.lengthscale:.3g})")


# --- report ----------------------------------------------------------------

_FIG3_METRICS = ("soc", "rsoc", "gssoc", "svc", "e_bind_eV",
                 "fosc_em", "lambda_em_nm")


@main.command()
@_RECORDS
@click.option("--lambda-host", type=float,
              help="Enables label/PC-score/GPC-grid outputs.")
@_NO_SOC
@click.option("--vibronic-dir", type=click.Path(exists=True, file_okay=False),
              help="Directory of per-candidate vibronic JSONs named <id>.json.")
@_stage
def report(ctx, records, lambda_host, no_soc, vibronic_dir):
    """Assemble the results table and per-figure CSV data."""
    candidates = _read_records(records)
    grid_model = {}   # fit parameters and counters of the fig4-grid GPC

    write_candidates_csv(candidates, _out(ctx, "table1.csv"))
    _write_json(_out(ctx, "table1.json"),
                [dict(zip(CANDIDATE_COLUMNS, r.as_row())) for r in candidates])

    for metric in _FIG3_METRICS:
        path = _out(ctx, f"fig3_{metric}.csv")
        _write_csv(path, ["id", "tanimoto", metric], (
            [r.id, f"{r.tanimoto:.4f}", f"{getattr(r, metric):.4f}"]
            for r in candidates
        ))

    if lambda_host is not None:
        good = label_good(candidates, lambda_host, include_soc=not no_soc)
        features = feature_matrix(candidates)
        comp = pca(features.values, k=2)
        path = _out(ctx, "fig4_pca.csv")
        _write_csv(path, ["id", "pc1", "pc2", "label"], (
            [r.id, f"{row[0]:.6f}", f"{row[1]:.6f}", int(g)]
            for r, row, g in zip(candidates, comp.scores, good)
        ))
        if 0 < int(good.sum()) < len(candidates):
            model = gpc_train(comp.scores, good.astype(float))
            lo = comp.scores.min(axis=0) - 1.0
            hi = comp.scores.max(axis=0) + 1.0
            gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], 50),
                                 np.linspace(lo[1], hi[1], 50))
            grid = np.column_stack([gx.ravel(), gy.ravel()])
            probs = gpc_predict(model, grid)
            path = _out(ctx, "fig4_grid.csv")
            _write_csv(path, ["pc1", "pc2", "probability"], (
                [f"{x:.6f}", f"{y:.6f}", f"{p:.6f}"]
                for (x, y), p in zip(grid, probs)
            ))
            grid_model = _gpc_params(model)

    if vibronic_dir is not None:
        rows = []
        for r in candidates:
            path = os.path.join(vibronic_dir, f"{r.id}.json")
            if not os.path.exists(path):
                continue
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            rows.append((r.id, r.svc, data["sum_weighted_hr"],
                         data["sum_g"]))
        for name, col in (("fig5_svc_vs_hr.csv", 2), ("fig6_svc_vs_g.csv", 3)):
            header = ["id", "svc",
                      "sum_weighted_hr" if col == 2 else "sum_g"]
            _write_csv(_out(ctx, name), header, (
                [row[0], f"{row[1]:.4f}", f"{row[col]:.4f}"] for row in rows
            ))

    return ({"records": records},
            {"lambda_host": lambda_host, "include_soc": not no_soc,
             **grid_model},
            f"wrote {len(ctx.obj['outputs'])} report files")


if __name__ == "__main__":
    main()
