"""Stochastic guest-in-host embedding and binding energies."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spescreen.embedding import (
    TRANSLATION_SCALE,
    EmbeddingConfig,
    EmbeddingTrial,
    _random_unit_vector,
    binding_energy,
    embed_emitter,
    select_most_stable,
    write_manifest,
)
from spescreen.potential import LennardJonesPotential, relax
from spescreen.structure import AtomicStructure, identify_molecules

from conftest import dimer, lj_lattice

AR_LJ = LennardJonesPotential({("Ar", "Ar"): (0.0104, 3.4)})


# --- reference implementations: the one-trial-at-a-time loop with a dense
# host x emitter distance array, which the chunked tree query replaced,
# and the rotation and unit vector it called.

def ref_rotate(structure, axis, angle_deg):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    theta = np.deg2rad(angle_deg)
    k = axis
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    R = np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)
    c = structure.center_of_mass()
    structure.positions = (structure.positions - c) @ R.T + c
    return structure


def ref_random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def ref_embed_emitter(host, emitter, cfg, counters=None):
    if host.cell is None:
        raise ValueError("host must carry a periodic cell")
    rng = np.random.default_rng(cfg.seed)
    labels = identify_molecules(host)
    lengths = np.linalg.norm(host.cell, axis=1)

    walker = emitter.copy()
    walker.translate(host.center_of_mass() - walker.center_of_mass())
    accepted = []
    per_count = {k: 0 for k in range(cfg.min_removed, cfg.max_removed + 1)}
    drawn = 0
    rejected = {"count_range": 0, "per_count_cap": 0, "containment": 0}

    for trial in range(cfg.max_trials):
        if all(v >= cfg.structures_per_count for v in per_count.values()):
            break
        drawn += 1
        axis = ref_random_unit_vector(rng)
        angle = float(rng.uniform(0.0, 360.0))
        ref_rotate(walker, axis, angle)
        shift = TRANSLATION_SCALE * lengths * rng.uniform(-1.0, 1.0, size=3)
        walker.translate(shift)

        d = np.linalg.norm(
            host.positions[:, None, :] - walker.positions[None, :, :], axis=2
        )
        removed_mols = np.zeros(labels.count, dtype=bool)
        removed_mols[labels.labels[(d < cfg.overlap_cutoff).any(axis=1)]] = True
        removed = int(np.count_nonzero(removed_mols))
        if not cfg.min_removed <= removed <= cfg.max_removed:
            rejected["count_range"] += 1
            continue
        if per_count[removed] >= cfg.structures_per_count:
            rejected["per_count_cap"] += 1
            continue
        idx = np.flatnonzero(~removed_mols[labels.labels])
        reduced = AtomicStructure([host.elements[i] for i in idx],
                                  host.positions[idx], masses=host.masses[idx])
        if not len(reduced):
            # every host molecule removed: no box to be inside
            rejected["containment"] += 1
            continue
        hmin, hmax = reduced.positions.min(0), reduced.positions.max(0)
        emin, emax = walker.positions.min(0), walker.positions.max(0)
        if not (np.all(emin > hmin) and np.all(emax < hmax)):
            rejected["containment"] += 1
            continue
        combined = AtomicStructure(
            elements=list(reduced.elements) + list(walker.elements),
            positions=np.vstack([reduced.positions, walker.positions]),
            masses=np.concatenate([reduced.masses, walker.masses]),
            cell=host.cell.copy(),
        )
        accepted.append(EmbeddingTrial(
            structure=combined,
            removed_count=removed,
            rotation_axis=axis,
            rotation_angle_deg=angle,
            translation=shift,
            trial_index=trial,
            n_host_atoms=len(reduced),
        ))
        per_count[removed] += 1
    if counters is not None:
        counters.update(trials_drawn=drawn, trials_accepted=len(accepted),
                        **{f"rejected_{k}": v for k, v in rejected.items()})
    return accepted


def small_run(seed=0, per_count=3, max_trials=1500):
    host = lj_lattice(5, spacing=3.0)
    emitter = dimer(r=1.2)
    cfg = EmbeddingConfig(
        overlap_cutoff=2.0, structures_per_count=per_count,
        max_trials=max_trials, seed=seed,
    )
    return host, emitter, cfg, embed_emitter(host, emitter, cfg)


class StalledLJ:
    """Argon LJ, except that structures of the given sizes never relax.

    They get a flat, very low energy and a constant force, so relax runs
    out of steps with a finite energy that would win any ranking.
    """

    def __init__(self, *sizes):
        self.sizes = sizes

    def evaluator(self, structure):
        if len(structure) in self.sizes:
            return lambda positions: (-100.0, np.ones((len(structure), 3)))
        return AR_LJ.evaluator(structure)


@pytest.fixture(scope="module")
def default_run():
    return small_run()


class TestContract:
    def test_accepts_structures(self, default_run):
        host, emitter, cfg, trials = default_run
        assert trials
        for t in trials:
            assert cfg.min_removed <= t.removed_count <= cfg.max_removed
            assert len(t.structure) == t.n_host_atoms + len(emitter)

    def test_separation_and_containment(self, default_run):
        host, emitter, cfg, trials = default_run
        ne = len(emitter)
        for t in trials:
            hp = t.structure.positions[:t.n_host_atoms]
            ep = t.structure.positions[t.n_host_atoms:]
            d = np.linalg.norm(hp[:, None] - ep[None, :], axis=2)
            assert d.min() >= cfg.overlap_cutoff
            assert np.all(ep.min(0) > hp.min(0))
            assert np.all(ep.max(0) < hp.max(0))

    def test_whole_molecule_removal(self, default_run):
        host, emitter, cfg, trials = default_run
        # monoatomic host: atoms removed == molecules removed
        for t in trials:
            assert len(host) - t.n_host_atoms == t.removed_count

    def test_per_count_cap(self):
        host, emitter, cfg, trials = small_run(per_count=2, max_trials=3000)
        counts = {}
        for t in trials:
            counts[t.removed_count] = counts.get(t.removed_count, 0) + 1
        assert all(v <= 2 for v in counts.values())

    def test_requires_cell(self):
        with pytest.raises(ValueError):
            embed_emitter(dimer(r=10.0), dimer(r=1.2),
                          EmbeddingConfig())

    def test_seed_determinism(self):
        _, _, _, a = small_run(seed=11)
        _, _, _, b = small_run(seed=11)
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            assert ta.trial_index == tb.trial_index
            assert np.array_equal(ta.structure.positions,
                                  tb.structure.positions)


class TestCounters:
    def test_trials_add_up(self):
        host, emitter, cfg, trials = small_run(per_count=2, max_trials=3000)
        counters = {}
        again = embed_emitter(host, emitter, cfg, counters=counters)
        assert [t.trial_index for t in again] == \
            [t.trial_index for t in trials]
        assert counters["trials_accepted"] == len(trials)
        assert counters["trials_drawn"] == (
            counters["trials_accepted"] + counters["rejected_count_range"]
            + counters["rejected_per_count_cap"]
            + counters["rejected_containment"])
        # the budget ran out, or every count filled up at the last draw
        assert counters["trials_drawn"] in (cfg.max_trials,
                                            trials[-1].trial_index + 1)
        assert counters["rejected_count_range"] > 0
        assert counters["rejected_per_count_cap"] > 0

    def test_relaxation_counters(self):
        host, emitter, cfg, trials = small_run(per_count=2, max_trials=800)
        stalled = next(len(t.structure) for t in trials
                       if len(t.structure) != len(host))
        potential = StalledLJ(stalled)
        counters = {}
        select_most_stable(trials, potential, host, emitter, fmax=0.05,
                           max_steps=200, counters=counters)
        runs = {name: relax(s, potential, fmax=0.05, max_steps=200)
                for name, s in (("emitter", emitter), ("host", host))}
        for name, res in runs.items():
            assert counters[f"{name}_relax_iterations"] == res.iterations
            assert counters[f"{name}_relax_probes"] == res.probes
            assert counters[f"{name}_relax_converged"] is True
        results = [relax(t.structure, potential, fmax=0.05, max_steps=200)
                   for t in trials]
        assert counters["trial_relax_iterations"] == sum(
            r.iterations for r in results)
        assert counters["trial_relax_probes"] == sum(
            r.probes for r in results)
        assert counters["trial_relax_unconverged"] == sum(
            len(t.structure) == stalled for t in trials) > 0
        # a probe per step at least, and the starting point
        assert all(r.probes >= r.iterations + 1 for r in results)


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


@st.composite
def embedding_hosts(draw):
    """Permuted, shifted cubic Ar lattices, or grids of dimers and trimers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.integers(2, 5))
    if draw(st.booleans()):
        base = lj_lattice(side, spacing=draw(st.floats(2.5, 4.0)))
        positions = base.positions[rng.permutation(len(base))]
        return AtomicStructure(elements=base.elements,
                               positions=positions + rng.uniform(-5, 5, 3),
                               cell=base.cell)
    # bonded within a molecule (1.4 A), 2.8 A or more between molecules
    spacing = 4.5
    triangle = 1.4 / np.sqrt(3.0) * np.array(
        [[np.cos(a), np.sin(a), 0.0] for a in (0.0, 2.1, 4.2)])
    elements, positions = [], []
    for site in np.ndindex(side, side, side):
        atoms = triangle[:rng.integers(2, 4)] @ _random_rotation(rng).T
        positions.extend(np.array(site) * spacing + atoms)
        elements.extend(rng.choice(["Ar", "C"], size=len(atoms)).tolist())
    return AtomicStructure(elements=elements, positions=np.array(positions),
                           cell=np.eye(3) * side * spacing)


@st.composite
def embedding_emitters(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    return AtomicStructure(elements=rng.choice(["Ar", "C"], size=n).tolist(),
                           positions=rng.uniform(-1.5, 1.5, size=(n, 3)))


@st.composite
def embedding_configs(draw):
    low = draw(st.integers(0, 3))
    return EmbeddingConfig(
        overlap_cutoff=draw(st.floats(0.5, 3.0)),
        min_removed=low, max_removed=low + draw(st.integers(0, 9)),
        structures_per_count=draw(st.integers(1, 40)),
        max_trials=draw(st.integers(1, 2000)),
        seed=draw(st.integers(0, 2**32 - 1)))


def assert_same_trials(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.trial_index == b.trial_index
        assert a.removed_count == b.removed_count
        assert a.n_host_atoms == b.n_host_atoms
        assert np.array_equal(a.rotation_axis, b.rotation_axis)
        assert a.rotation_angle_deg == b.rotation_angle_deg
        assert np.array_equal(a.translation, b.translation)
        assert np.array_equal(a.structure.positions, b.structure.positions)
        assert a.structure.elements == b.structure.elements
        assert np.array_equal(a.structure.masses, b.structure.masses)


class TestReferenceLoop:
    """The chunked tree query gives the one-trial loop's trials, bit for
    bit."""

    @settings(max_examples=40, deadline=None)
    @given(embedding_hosts(), embedding_emitters(), embedding_configs())
    def test_matches_reference(self, host, emitter, cfg):
        got_counters, want_counters = {}, {}
        want = ref_embed_emitter(host, emitter, cfg, counters=want_counters)
        got = embed_emitter(host, emitter, cfg, counters=got_counters)
        assert got_counters == want_counters
        assert_same_trials(got, want)

    def test_every_molecule_removed(self):
        """A trial that removes all 8 host molecules counts as a
        containment rejection in both loops."""
        host, emitter = lj_lattice(2, spacing=3.0), dimer(r=1.2)
        cfg = EmbeddingConfig(overlap_cutoff=3.0, min_removed=8,
                              max_removed=8, max_trials=50)
        got_counters, want_counters = {}, {}
        assert embed_emitter(host, emitter, cfg, counters=got_counters) == []
        assert ref_embed_emitter(host, emitter, cfg,
                                 counters=want_counters) == []
        assert got_counters == want_counters
        # only all-removing trials pass the count range [8, 8]
        assert got_counters["rejected_containment"] == \
            50 - got_counters["rejected_count_range"] > 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3).filter(
               lambda v: np.linalg.norm(v) > 1e-3),
           st.booleans(),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_rotate_matches_reference(self, seed, axis, as_list, angle):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        s = AtomicStructure(elements=rng.choice(["Ar", "C", "H"],
                                                size=n).tolist(),
                            positions=rng.uniform(-5, 5, size=(n, 3)))
        axis = axis if as_list else np.array(axis)
        want = ref_rotate(s.copy(), axis, angle).positions
        assert np.array_equal(s.rotate(axis, angle).positions, want)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unit_vector_matches_reference(self, seed):
        got = _random_unit_vector(np.random.default_rng(seed))
        want = ref_random_unit_vector(np.random.default_rng(seed))
        assert np.array_equal(got, want)

    def test_cutoff_is_strict(self):
        """A host atom at exactly the cutoff stays; one just inside goes."""
        host = lj_lattice(4, spacing=3.0)
        emitter = AtomicStructure(["Ar"], [[0.0, 0.0, 0.0]])
        cfg = dict(min_removed=0, max_removed=5, max_trials=1, seed=3)
        (probe,) = embed_emitter(host, emitter,
                                 EmbeddingConfig(overlap_cutoff=0.01, **cfg))
        site = probe.structure.positions[-1]
        d = np.sort(np.linalg.norm(host.positions - site, axis=-1))
        assert d[1] - d[0] > 1e-3   # one atom at the boundary
        for cutoff, removed in ((d[0], 0), (np.nextafter(d[0], np.inf), 1)):
            if removed:
                assert d[0] == np.nextafter(cutoff, 0)
            run = EmbeddingConfig(overlap_cutoff=float(cutoff), **cfg)
            for embed in (embed_emitter, ref_embed_emitter):
                (trial,) = embed(host, emitter, run)
                assert trial.removed_count == removed
                assert np.array_equal(trial.structure.positions[-1], site)

    @pytest.mark.parametrize("per_count, max_trials", [(5, 3000), (40, 200)])
    def test_rotate_calls_equal_trials_drawn(self, monkeypatch, per_count,
                                             max_trials):
        """The benchmark counts trials as rotate calls inside
        embed_emitter."""
        calls = []
        rotate = AtomicStructure.rotate

        def counted(self, *args):
            calls.append(None)
            return rotate(self, *args)

        monkeypatch.setattr(AtomicStructure, "rotate", counted)
        host, emitter = lj_lattice(5, spacing=3.0), dimer(r=1.2)
        cfg = EmbeddingConfig(overlap_cutoff=2.0, min_removed=1,
                              max_removed=3, structures_per_count=per_count,
                              max_trials=max_trials, seed=3)
        counters = {}
        trials = embed_emitter(host, emitter, cfg, counters=counters)
        assert len(calls) == counters["trials_drawn"]
        if per_count == 5:
            # every count filled early
            assert len(trials) == 3 * per_count
            assert counters["trials_drawn"] == trials[-1].trial_index + 1
            assert counters["trials_drawn"] < max_trials
        else:
            assert counters["trials_drawn"] == max_trials
            assert len(trials) < 3 * per_count


class TestBindingEnergy:
    def test_null_case(self):
        # complex == pristine supercell, no emitter: identically zero
        e = binding_energy(e_complex=-5.0, e_emitter=0.0, n_complex=100,
                           n_emitter=0, n_supercell=100, e_supercell=-5.0)
        assert abs(e) < 1e-12

    def test_linearity(self):
        base = dict(e_emitter=-1.0, n_complex=90, n_emitter=10,
                    n_supercell=100, e_supercell=-50.0)
        e1 = binding_energy(e_complex=-60.0, **base)
        e2 = binding_energy(e_complex=-61.5, **base)
        assert e2 - e1 == pytest.approx(-1.5, abs=1e-12)

    def test_known_value(self):
        e = binding_energy(e_complex=-12.0, e_emitter=-2.0, n_complex=18,
                           n_emitter=2, n_supercell=32, e_supercell=-16.0)
        assert e == pytest.approx(-12.0 + 2.0 + 16.0 / 2.0, abs=1e-12)

    def test_bad_supercell_count(self):
        with pytest.raises(ValueError):
            binding_energy(0, 0, 1, 1, 0, 0)


class TestSelection:
    def test_selects_minimum(self):
        host, emitter, cfg, trials = small_run(per_count=2, max_trials=800)
        best, e_best, energies = select_most_stable(
            trials, AR_LJ, host, emitter, fmax=0.05, max_steps=200,
        )
        assert len(energies) == len(trials)
        assert e_best == min(energies)
        assert best is trials[int(np.argmin(energies))]
        assert all(t.relax_converged for t in trials)

    def test_skips_unconverged_complexes(self):
        host, emitter, cfg, trials = small_run(per_count=2, max_trials=800)
        stalled = next(len(t.structure) for t in trials
                       if len(t.structure) != len(host))
        best, e_best, energies = select_most_stable(
            trials, StalledLJ(stalled), host, emitter, fmax=0.05,
            max_steps=200,
        )
        flags = [t.relax_converged for t in trials]
        assert flags == [len(t.structure) != stalled for t in trials]
        assert any(flags)
        assert np.all(np.isfinite(energies))
        assert best.relax_converged
        assert e_best == min(e for e, ok in zip(energies, flags) if ok)
        assert min(energies) < e_best   # a stalled complex would have won

    @pytest.mark.parametrize("part", ["emitter", "host"])
    def test_unconverged_reference_raises(self, part):
        host, emitter, cfg, trials = small_run(per_count=2, max_trials=800)
        size = len(emitter) if part == "emitter" else len(host)
        with pytest.raises(FloatingPointError, match=part):
            select_most_stable(trials, StalledLJ(size), host, emitter,
                               fmax=0.05, max_steps=200)

    def test_no_converged_complex_raises(self):
        host, emitter, cfg, trials = small_run(per_count=2, max_trials=800)
        sizes = {len(t.structure) for t in trials} - {len(host)}
        trials = [t for t in trials if len(t.structure) in sizes]
        with pytest.raises(FloatingPointError, match="no complex"):
            select_most_stable(trials, StalledLJ(*sizes), host, emitter,
                               fmax=0.05, max_steps=200)


class TestManifest:
    def test_byte_identical(self, tmp_path):
        _, _, cfg, trials = small_run(seed=5, per_count=2, max_trials=800)
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        write_manifest(trials, p1, cfg)
        write_manifest(trials, p2, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_relax_converged_recorded(self, tmp_path):
        host, emitter, cfg, trials = small_run(per_count=2, max_trials=800)
        stalled = next(len(t.structure) for t in trials
                       if len(t.structure) != len(host))
        _, _, energies = select_most_stable(
            trials, StalledLJ(stalled), host, emitter, fmax=0.05,
            max_steps=200,
        )
        p = tmp_path / "m.json"
        write_manifest(trials, p, cfg, binding_energies=energies)
        records = json.loads(p.read_text())["accepted"]
        assert [r["relax_converged"] for r in records] == [
            t.relax_converged for t in trials]
        write_manifest(trials, p, cfg)
        records = json.loads(p.read_text())["accepted"]
        assert all("relax_converged" not in r for r in records)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_leaves_no_file(self, tmp_path, bad):
        _, _, cfg, trials = small_run(seed=5, per_count=2, max_trials=800)
        energies = [0.0] * len(trials)
        energies[-1] = bad
        with pytest.raises(FloatingPointError, match="m.json"):
            write_manifest(trials, tmp_path / "m.json", cfg,
                           binding_energies=energies,
                           xyz_paths=[str(tmp_path / f"s_{k}.xyz")
                                      for k in range(len(trials))])
        assert not list(tmp_path.iterdir())

    def test_contents(self, tmp_path):
        _, _, cfg, trials = small_run(seed=5, per_count=2, max_trials=800)
        p = tmp_path / "m.json"
        paths = [str(tmp_path / f"s_{k}.xyz") for k in range(len(trials))]
        write_manifest(trials, p, cfg, xyz_paths=paths)
        data = json.loads(p.read_text())
        assert len(data["accepted"]) == len(trials)
        assert data["config"]["seed"] == 5
        assert data["config"]["translation_scale"] == TRANSLATION_SCALE
        assert data["config"]["cumulative"] is True
        assert [rec["xyz"] for rec in data["accepted"]] == paths
        assert {f.name for f in tmp_path.iterdir()} == {
            "m.json", *(f"s_{k}.xyz" for k in range(len(trials)))}
