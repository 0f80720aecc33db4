"""Command-line pipeline driver.

Subcommands cover the screening stages: similarity ranking, candidate
maps, guest-host embedding, normal modes, vibronic metrics, spin-orbit
aggregates, Stark coefficients, labeling, classification, and report
assembly. A plain-text INI config supplies option defaults through
click's default_map: `[global]` keys set the group's options and each
`[<stage>]` section sets that stage's, under the flag name with dashes
turned into underscores. A flag beats the config, which beats the built-in
default. Exit codes: 0 success, 2 validation error, 3 numerical failure.

Every call is a fresh interpreter, so each stage body imports the spescreen
modules it runs, and only numpy, click and `jsonio`, which every stage
needs, are imported at the top.
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
from .jsonio import write_json

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (np.linalg.LinAlgError, ArithmeticError)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, payload):
    """Write `payload` as indented, key-sorted strict JSON."""
    write_json(path, payload, indent=2, sort_keys=True)


def _write_stage_manifest(ctx, counters):
    """Record a stage's options as click parsed them, its counters, and
    the outputs `_out` recorded.

    An option of type `click.Path(exists=True)` that accepts files is an
    input: its path and sha256, left out when not given. Every other
    option is a parameter under its option name, whether the flag, the
    config or the default set it; the counters join the parameters.
    """
    stage = ctx.info_name
    inputs, params = {}, {}
    for param in ctx.command.params:
        value = ctx.params[param.name]
        kind = param.type
        if not (isinstance(kind, click.Path) and kind.exists
                and kind.file_okay):
            params[param.name] = value
        elif value is not None:
            inputs[param.name] = {"path": str(value), "sha256": _sha256(value)}
    manifest = {
        "stage": stage,
        "version": __version__,
        "inputs": inputs,
        "parameters": {**params, **counters},
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
    `_out`, and returns (counters, message): what it counted or fitted,
    never its options, which `_write_stage_manifest` reads from click's
    parse. Only then is `<stage>_manifest.json` written and the message
    echoed. Numerical failures exit 3; every other exception exits 2 with
    a one-line message, so no stage ends in a traceback with exit 1, and a
    stage that fails leaves no manifest.
    """

    @click.pass_context
    @functools.wraps(func)
    def wrapper(ctx, *args, **kwargs):
        stage = ctx.info_name
        ctx.obj["outputs"] = []
        try:
            counters, message = func(ctx, *args, **kwargs)
            _write_stage_manifest(ctx, counters)
            click.echo(message)
        except _NUMERICAL_ERRORS as exc:
            click.echo(f"[{stage}] numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (ValueError, KeyError, OSError) as exc:
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
    """Option callback: refuse a value that is not finite and positive;
    an optional option left unset (None) passes."""
    if value is not None and not (np.isfinite(value) and value > 0):
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
                            callback=_finite_positive,
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
    from .chem.fingerprint import (load_smiles_table, morgan_fingerprint,
                                   rank_by_similarity, similarity_summary)
    from .chem.smiles import parse_smiles

    entries, skipped = load_smiles_table(smiles)
    ref_graph = dict(entries).get(reference)
    if ref_graph is None:
        ref_graph = parse_smiles(reference)
    memo = {}
    ref_fp = morgan_fingerprint(ref_graph, radius, nbits, memo=memo)
    database = [
        (cid, morgan_fingerprint(graph, radius, nbits, memo=memo))
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
    return {}, f"ranked {len(ranked)} entries ({skipped} skipped)"


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
    from .chem.fingerprint import (load_smiles_table, morgan_fingerprint,
                                   tanimoto_matrix)
    from .ml.hdbscan import hdbscan
    from .ml.tsne import tsne

    entries, skipped = load_smiles_table(smiles)
    ids = [cid for cid, _ in entries]
    memo = {}
    fps = [morgan_fingerprint(graph, radius, nbits, memo=memo)
           for _, graph in entries]
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

    labels = clusters.labels
    _write_csv(_out(ctx, out), ["x", "y", "cluster", "id"], (
        [f"{xy[0]:.6f}", f"{xy[1]:.6f}", int(lab), cid]
        for xy, lab, cid in zip(result.embedding, labels, ids)
    ))
    return ({"seed": ctx.obj["seed"], "skipped_rows": skipped,
             "n_clusters": clusters.n_clusters,
             "n_noise": int((labels < 0).sum()),
             "cluster_sizes": np.bincount(labels[labels >= 0],
                                          minlength=clusters.n_clusters
                                          ).tolist(),
             "kl_divergence": result.kl_divergence,
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
    from .embedding import (EmbeddingConfig, embed_emitter,
                            select_most_stable, write_manifest)
    from .potential import LennardJonesPotential
    from .structure import parse_xyz

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
    return ({"seed": cfg.seed, **counters},
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
    from .potential import (ExternalPotential, LennardJonesPotential,
                            max_force_norm, relax as relax_structure)
    from .structure import coincident_pair, parse_xyz
    from .vibronic import normal_modes, save_mode_set

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

    counters = {}
    if relax:
        result = relax_structure(geometry, potential, fmax=fmax)
        counters.update(relax_iterations=result.iterations,
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
    counters.update(n_atoms=len(geometry), n_imaginary=n_im,
                    hessian_asymmetry=float(np.abs(hessian - hessian.T).max()),
                    max_force=max_force, stationary=max_force <= fmax)
    return counters, f"{len(modeset.frequencies)} modes ({n_im} imaginary)"


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
    from .structure import parse_xyz
    from .vibronic import load_mode_set, vibronic_report

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
    return {}, f"svc={report.svc:.4f} direct_fc={report.direct_fc:.4f}"


# --- spin ------------------------------------------------------------------

@main.command()
@click.option("--states", type=click.Path(exists=True), required=True,
              help="Excited-state table JSON.")
@click.option("--out", default="spin.json", show_default=True)
@_stage
def spin(ctx, states, out):
    """Aggregate spin-orbit couplings into SOC / rSOC / gsSOC."""
    from .spectro import (gssoc_metric, load_excited_state_table, rsoc_metric,
                          soc_metric)

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
    return ({}, f"soc={payload['soc']:.4f} rsoc={payload['rsoc']:.4f} "
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
    from .spectro import StarkInput, stark_coefficients

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
    return ({}, f"a={coeffs.a_mhz_per_kvcm:.3f} MHz/(kV/cm) "
            f"b={coeffs.b_mhz_per_kvcm2:.4f} MHz/(kV/cm)^2")


# --- label / classify ------------------------------------------------------

def _read_records(records):
    from .spectro import read_candidates_csv

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
    from .ml.labeling import label_good

    candidates = _read_records(records)
    good = label_good(candidates, lambda_host, include_soc=not no_soc)
    _write_csv(_out(ctx, out), ["id", "label"],
               ([rec.id, int(g)] for rec, g in zip(candidates, good)))
    return {}, f"labeled {int(good.sum())}/{len(candidates)} as good"


@main.command()
@_RECORDS
@_LAMBDA_HOST
@_NO_SOC
@_LABELS_OUT
@_stage
def classify(ctx, records, lambda_host, no_soc, out):
    """Label candidates and attach GPC class probabilities."""
    from .ml.gpc import gpc_predict, gpc_train
    from .ml.labeling import feature_matrix, label_good

    candidates = _read_records(records)
    good = label_good(candidates, lambda_host, include_soc=not no_soc)
    features = feature_matrix(candidates)
    model = gpc_train(features.values, good.astype(float))
    probs = gpc_predict(model, features.values)
    _write_csv(_out(ctx, out), ["id", "label", "probability"], (
        [rec.id, int(g), f"{p:.6f}"]
        for rec, g, p in zip(candidates, good, probs)
    ))
    return (_gpc_params(model),
            f"classified {len(candidates)} records (sigma2="
            f"{model.sigma2:.3g}, lengthscale={model.lengthscale:.3g})")


# --- report ----------------------------------------------------------------

_FIG3_METRICS = ("soc", "rsoc", "gssoc", "svc", "e_bind_eV",
                 "fosc_em", "lambda_em_nm")


@main.command()
@_RECORDS
@click.option("--lambda-host", type=float, callback=_finite_positive,
              help="Enables label/PC-score/GPC-grid outputs.")
@_NO_SOC
@click.option("--vibronic-dir", type=click.Path(exists=True, file_okay=False),
              help="Directory of per-candidate vibronic JSONs named <id>.json.")
@_stage
def report(ctx, records, lambda_host, no_soc, vibronic_dir):
    """Assemble the results table and per-figure CSV data."""
    from .spectro import CANDIDATE_COLUMNS, write_candidates_csv

    candidates = _read_records(records)
    # the fig4-grid GPC's fit parameters and the vibronic files not found
    counters = {}

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
        from .ml.gpc import gpc_predict, gpc_train
        from .ml.labeling import feature_matrix, label_good
        from .ml.pca import pca

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
            counters.update(_gpc_params(model))

    if vibronic_dir is not None:
        rows, missing = [], []
        for r in candidates:
            path = os.path.join(vibronic_dir, f"{r.id}.json")
            if not os.path.exists(path):
                missing.append(r.id)
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
        counters.update(vibronic_missing=len(missing),
                        vibronic_missing_ids=missing[:20])

    return counters, f"wrote {len(ctx.obj['outputs'])} report files"


if __name__ == "__main__":
    main()
