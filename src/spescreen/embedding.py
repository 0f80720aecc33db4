"""Stochastic guest-in-host embedding and binding-energy selection.

An emitter is placed at the host center of mass, then randomly rotated and
translated in a cumulative random walk. Host molecules with any atom
closer than the overlap cutoff to the emitter are deleted whole, and a
trial is kept only when the emitter bounding box lies strictly inside the
remaining host bounding box. Selection ranks the binding energies of the
relaxed complexes whose relaxation converged.

Trials are walked in chunks of at most 256, and never more trials than
slots are open, so the loop stops where a one-trial loop would. One
`structure.close_pairs` query per chunk, against a host tree built once
per call, proposes host-emitter pairs; each is kept when its exact
`np.linalg.norm(host - walker)` is strictly below the cutoff, the
expression the dense host x emitter array used, so the accepted trials
are the same bit for bit. Distances are raw, with no periodic images.
scipy is imported when `embed_emitter` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .jsonio import write_json
from .potential import relax
from .structure import (AtomicStructure, close_pairs, identify_molecules,
                        write_xyz)

# largest walk step along each lattice vector, as a fraction of its length
TRANSLATION_SCALE = 0.05


@dataclass
class EmbeddingConfig:
    overlap_cutoff: float = 1.0        # A
    min_removed: int = 2
    max_removed: int = 5
    structures_per_count: int = 25
    max_trials: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.overlap_cutoff < math.inf:
            raise ValueError(
                f"overlap cutoff {self.overlap_cutoff} is not finite and "
                "positive")
        if self.min_removed < 0:
            raise ValueError("min_removed must be >= 0")
        if self.min_removed > self.max_removed:
            raise ValueError("min_removed must be <= max_removed")
        if self.structures_per_count < 1 or self.max_trials < 1:
            raise ValueError("trial caps must be >= 1")


@dataclass
class EmbeddingTrial:
    structure: AtomicStructure       # remaining host + emitter
    removed_count: int
    rotation_axis: np.ndarray
    rotation_angle_deg: float
    translation: np.ndarray
    trial_index: int
    n_host_atoms: int                # atoms of the (reduced) host, listed first
    relax_converged: bool | None = None   # set by select_most_stable


def _random_unit_vector(rng):
    v = rng.normal(size=3)
    # sqrt(v.v) is what np.linalg.norm computes for a 1-D vector
    return v / math.sqrt(v.dot(v))


# trials per overlap query; the accepted trials do not depend on it
_CHUNK = 256


def embed_emitter(host: AtomicStructure, emitter: AtomicStructure,
                  cfg: EmbeddingConfig, counters: dict | None = None):
    """Run the stochastic embedding loop; returns accepted EmbeddingTrials.

    A `counters` dict receives `trials_drawn`, `trials_accepted` and the
    rejections by reason: `rejected_count_range` (removed molecules
    outside [min_removed, max_removed]), `rejected_per_count_cap` (that
    count already has structures_per_count trials) and
    `rejected_containment` (emitter box not strictly inside the remaining
    host's, or no host molecule left).
    """
    from scipy.spatial import cKDTree

    if host.cell is None:
        raise ValueError("host must carry a periodic cell")
    rng = np.random.default_rng(cfg.seed)
    labels = identify_molecules(host)
    step = TRANSLATION_SCALE * np.linalg.norm(host.cell, axis=1)
    host_tree = cKDTree(host.positions)
    cutoff = cfg.overlap_cutoff

    walker = emitter.copy()
    walker.translate(host.center_of_mass() - walker.center_of_mass())
    accepted = []
    per_count = {k: 0 for k in range(cfg.min_removed, cfg.max_removed + 1)}
    drawn = 0
    rejected = {"count_range": 0, "per_count_cap": 0, "containment": 0}

    while drawn < cfg.max_trials:
        open_slots = sum(cfg.structures_per_count - v
                         for v in per_count.values())
        if open_slots <= 0:
            break
        # a trial fills at most one slot and a chunk has no more trials
        # than open slots, so the last slot can only fill at the chunk's
        # last trial: no trial is walked past where a one-trial loop stops
        size = min(_CHUNK, cfg.max_trials - drawn, open_slots)
        draws = []
        positions = np.empty((size, len(walker), 3))
        for c in range(size):
            axis = _random_unit_vector(rng)
            angle = float(rng.uniform(0.0, 360.0))
            walker.rotate(axis, angle)
            shift = step * rng.uniform(-1.0, 1.0, size=3)
            walker.translate(shift)
            draws.append((axis, angle, shift))
            positions[c] = walker.positions

        # each proposed pair is kept on the raw distance computed as the
        # dense host x emitter array would have it
        w, h, d = close_pairs(cKDTree(positions.reshape(-1, 3)), host_tree,
                              cutoff)
        close = d < cutoff
        removed_mols = np.zeros((size, labels.count), dtype=bool)
        removed_mols[w[close] // len(walker), labels.labels[h[close]]] = True
        removed_counts = np.count_nonzero(removed_mols, axis=1).tolist()

        for c, (axis, angle, shift) in enumerate(draws):
            trial = drawn + c
            removed = removed_counts[c]
            if not cfg.min_removed <= removed <= cfg.max_removed:
                rejected["count_range"] += 1
                continue
            if per_count[removed] >= cfg.structures_per_count:
                rejected["per_count_cap"] += 1
                continue
            keep = ~removed_mols[c][labels.labels]   # remaining host atoms
            remaining = host.positions[keep]
            # containment: emitter bbox strictly inside remaining-host bbox;
            # a trial that removed every host molecule leaves no box
            emin, emax = positions[c].min(0), positions[c].max(0)
            if not (len(remaining)
                    and np.all(emin > remaining.min(0))
                    and np.all(emax < remaining.max(0))):
                rejected["containment"] += 1
                continue
            combined = AtomicStructure(
                elements=[e for e, k in zip(host.elements, keep) if k]
                + list(walker.elements),
                positions=np.vstack([remaining, positions[c]]),
                masses=np.concatenate([host.masses[keep], walker.masses]),
                cell=host.cell.copy(),
            )
            accepted.append(EmbeddingTrial(
                structure=combined,
                removed_count=removed,
                rotation_axis=axis,
                rotation_angle_deg=angle,
                translation=shift,
                trial_index=trial,
                n_host_atoms=len(remaining),
            ))
            per_count[removed] += 1
        drawn += size
    if counters is not None:
        counters.update(trials_drawn=drawn, trials_accepted=len(accepted),
                        **{f"rejected_{k}": v for k, v in rejected.items()})
    return accepted


def binding_energy(e_complex: float, e_emitter: float, n_complex: int,
                   n_emitter: int, n_supercell: int, e_supercell: float) -> float:
    """Formation energy of the guest-host complex relative to its parts.

    E_bind = E_complex - E_emitter
             - (N_complex - N_emitter) / N_supercell * E_supercell
    """
    if n_supercell <= 0:
        raise ValueError("supercell atom count must be positive")
    frac = (n_complex - n_emitter) / n_supercell
    return e_complex - e_emitter - frac * e_supercell


def select_most_stable(trials, potential, host: AtomicStructure,
                       emitter: AtomicStructure, fmax: float = 0.01,
                       max_steps: int = 500, counters: dict | None = None):
    """Relax complex/emitter/host, compute binding energies, return argmin.

    Energies are the final energies of the relaxations. Each trial's
    `relax_converged` records whether its complex relaxation converged;
    only converged complexes take part in the argmin, and every trial keeps
    its (finite) binding energy. Raises FloatingPointError when the emitter
    or the host does not converge, or when no complex does.

    A `counters` dict receives the L-BFGS `iterations`, energy-and-forces
    `probes` and convergence of the emitter and host relaxations
    (`emitter_relax_*`, `host_relax_*`), and the iteration and probe totals
    and unconverged count of the trial relaxations (`trial_relax_*`).

    Returns (best_trial, best_binding_energy, per_trial_energies). Ties
    break toward the earliest trial index.
    """
    trials = list(trials)
    if not trials:
        raise ValueError("no accepted trials to select from")
    em_res = relax(emitter, potential, fmax=fmax, max_steps=max_steps)
    host_res = relax(host, potential, fmax=fmax, max_steps=max_steps)
    for name, res in (("emitter", em_res), ("host", host_res)):
        if counters is not None:
            counters.update({f"{name}_relax_iterations": res.iterations,
                             f"{name}_relax_probes": res.probes,
                             f"{name}_relax_converged": res.converged})
        if not res.converged:
            raise FloatingPointError(
                f"{name} relaxation did not converge "
                f"(max force {res.max_force:.3e} eV/A)"
            )
    energies = []
    iterations = probes = 0
    for t in trials:
        res = relax(t.structure, potential, fmax=fmax, max_steps=max_steps)
        t.relax_converged = res.converged
        iterations += res.iterations
        probes += res.probes
        energies.append(binding_energy(
            res.energies[-1], em_res.energies[-1], len(t.structure),
            len(emitter), len(host), host_res.energies[-1],
        ))
    if counters is not None:
        counters.update(
            trial_relax_iterations=iterations, trial_relax_probes=probes,
            trial_relax_unconverged=sum(not t.relax_converged
                                        for t in trials))
    ranked = [k for k, t in enumerate(trials) if t.relax_converged]
    if not ranked:
        raise FloatingPointError("no complex relaxation converged")
    best = min(ranked, key=energies.__getitem__)
    return trials[best], energies[best], energies


def write_manifest(trials, path, cfg: EmbeddingConfig, binding_energies=None,
                   xyz_paths=None):
    """Dump accepted trials to a JSON manifest; with `xyz_paths`, one per
    trial, record k names xyz_paths[k] and trial k's structure goes there.

    A NaN or infinity cannot be written as JSON: it raises
    FloatingPointError before any file is written.
    """
    records = []
    for k, t in enumerate(trials):
        rec = {
            "trial_index": t.trial_index,
            "removed_count": t.removed_count,
            "rotation_axis": [round(float(x), 12) for x in t.rotation_axis],
            "rotation_angle_deg": round(float(t.rotation_angle_deg), 12),
            "translation": [round(float(x), 12) for x in t.translation],
            "n_atoms": len(t.structure),
            "n_host_atoms": t.n_host_atoms,
        }
        if binding_energies is not None:
            rec["binding_energy_eV"] = round(float(binding_energies[k]), 12)
            rec["relax_converged"] = bool(t.relax_converged)
        if xyz_paths is not None:
            rec["xyz"] = str(xyz_paths[k])
        records.append(rec)
    # the walk is always cumulative and its step fixed; the keys keep the
    # manifest format
    config = {**asdict(cfg), "translation_scale": TRANSLATION_SCALE,
              "cumulative": True}
    payload = {"config": config, "accepted": records}
    write_json(path, payload, indent=2, sort_keys=True)
    if xyz_paths is not None:
        for t, rec in zip(trials, records):
            write_xyz(t.structure, rec["xyz"])
    return payload
