"""Stochastic guest-in-host embedding and binding energies."""

import json

import numpy as np
import pytest

from spescreen.embedding import (
    EmbeddingConfig,
    binding_energy,
    embed_emitter,
    select_most_stable,
    write_manifest,
)
from spescreen.potential import LennardJonesPotential, relax

from conftest import dimer, lj_lattice

AR_LJ = LennardJonesPotential({("Ar", "Ar"): (0.0104, 3.4)})


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
                           xyz_prefix=str(tmp_path / "s_"))
        assert not list(tmp_path.iterdir())

    def test_contents(self, tmp_path):
        _, _, cfg, trials = small_run(seed=5, per_count=2, max_trials=800)
        p = tmp_path / "m.json"
        write_manifest(trials, p, cfg, xyz_prefix=str(tmp_path / "s_"))
        data = json.loads(p.read_text())
        assert len(data["accepted"]) == len(trials)
        assert data["config"]["seed"] == 5
        for rec in data["accepted"]:
            assert (tmp_path / rec["xyz"].split("/")[-1]).exists()
