"""Normal modes, overlap entropies, Huang-Rhys factors, FC metric."""

import json

import numpy as np
import pytest

from spescreen.constants import (
    AMU_TO_ME,
    ANGSTROM_TO_BOHR,
    VIB_FREQ_TO_AU,
    VIB_FREQ_TO_CM1,
)
from spescreen.vibronic import (
    INVERSE_MASS_NORMALIZED,
    MASS_WEIGHTED_ORTHONORMAL,
    MASS_WEIGHTED_THEN_NORMALIZED,
    NormalModeSet,
    canonical_mode_signs,
    direct_fc_metric,
    force_projection,
    huang_rhys,
    load_mode_set,
    mode_overlap_matrix,
    normal_modes,
    projection_entropy,
    reweight_external_modes,
    save_mode_set,
    vibronic_coupling_entropy,
    vibronic_report,
    weighted_hr,
)


def random_mode_set(n_atoms, seed, masses=None):
    """Orthonormal modes from a random symmetric positive matrix."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3 * n_atoms, 3 * n_atoms))
    if masses is None:
        masses = rng.uniform(1.0, 40.0, size=n_atoms)
    return normal_modes(a @ a.T, masses)


class TestNormalModes:
    def test_dimer_frequency(self):
        """Homonuclear harmonic dimer: w = sqrt(2 k / m)."""
        k, m = 7.3, 14.5
        K = np.zeros((6, 6))
        K[0, 0] = K[3, 3] = k
        K[0, 3] = K[3, 0] = -k
        ms = normal_modes(K, [m, m])
        expect = np.sqrt(2 * k / m)
        assert ms.frequencies[-1] == pytest.approx(expect, rel=1e-12)
        assert np.allclose(ms.frequencies[:-1], 0.0, atol=1e-10)

    def test_orthonormal(self):
        ms = random_mode_set(4, seed=0)
        gram = ms.modes @ ms.modes.T
        assert np.allclose(gram, np.eye(12), atol=1e-10)

    def test_asymmetric_rejected(self):
        K = np.zeros((6, 6))
        K[0, 1] = 1.0
        with pytest.raises(ValueError):
            normal_modes(K, [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        """NaN passes the asymmetry tolerance, so it is checked first."""
        K = np.eye(6)
        K[0, 0] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            normal_modes(K, [1.0, 1.0])

    def test_imaginary_flagged(self):
        K = -np.eye(6)
        ms = normal_modes(K, [1.0, 1.0])
        assert np.all(ms.imaginary)

    def test_sign_convention(self):
        ms = random_mode_set(4, seed=3)
        lead = np.argmax(np.abs(ms.modes), axis=1)
        assert np.all(ms.modes[np.arange(12), lead] > 0.0)

    def test_sign_ties_go_to_lowest_index(self):
        modes = np.array([[-0.5, 0.5, 0.1], [0.2, -0.7, 0.7], [0.0, 0.0, 0.0]])
        assert np.array_equal(canonical_mode_signs(modes), [
            [0.5, -0.5, -0.1], [-0.2, 0.7, -0.7], [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_flipped_signs_recanonicalise(self, seed):
        """Negating any subset of rows changes neither modes nor direct_fc."""
        masses_e = np.array([12.0, 12.0])
        iso = random_mode_set(2, seed=10, masses=masses_e)
        emb = random_mode_set(5, seed=11 + seed,
                              masses=np.concatenate([np.full(3, 40.0),
                                                     masses_e]))
        f = np.random.default_rng(12).normal(size=6)
        flips = np.random.default_rng(seed).choice([-1.0, 1.0], size=15)
        flipped = NormalModeSet(emb.frequencies, flips[:, None] * emb.modes,
                                emb.masses)
        canon = NormalModeSet(emb.frequencies,
                              canonical_mode_signs(flipped.modes), emb.masses)
        assert np.array_equal(canon.modes, emb.modes)
        fc = direct_fc_metric(f, emb, range(3, 5), isolated=iso)
        assert direct_fc_metric(f, canon, range(3, 5), isolated=iso) == fc


class TestConventions:
    def test_roundtrip_idempotent(self):
        ms = random_mode_set(3, seed=1)
        for conv in (INVERSE_MASS_NORMALIZED, MASS_WEIGHTED_THEN_NORMALIZED):
            # export to the external convention, then convert back twice
            sqrt_m = np.repeat(np.sqrt(ms.masses), 3)
            exported = ms.modes / sqrt_m[None, :]
            once = reweight_external_modes(exported, ms.masses, conv)
            twice = reweight_external_modes(once.modes, ms.masses,
                                            MASS_WEIGHTED_ORTHONORMAL)
            sign = np.sign(
                np.sum(once.modes * ms.modes, axis=1, keepdims=True)
            )
            assert np.allclose(sign * once.modes, ms.modes, atol=1e-10)
            assert np.allclose(twice.modes, once.modes, atol=1e-12)

    def test_unknown_convention(self):
        ms = random_mode_set(2, seed=2)
        with pytest.raises(ValueError):
            reweight_external_modes(ms.modes, ms.masses, "bogus")


class TestOverlap:
    def test_row_sums_complete_basis(self):
        masses_e = np.array([12.0, 1.0, 16.0])
        iso = random_mode_set(3, seed=3, masses=masses_e)
        masses_c = np.concatenate([np.full(5, 40.0), masses_e])
        emb = random_mode_set(8, seed=4, masses=masses_c)
        rho = mode_overlap_matrix(iso, emb, emitter_atoms=range(5, 8))
        assert np.allclose(rho.sum(axis=1), 1.0, atol=1e-10)

    def test_identity_case(self):
        iso = random_mode_set(3, seed=5)
        rho = mode_overlap_matrix(iso, iso, emitter_atoms=range(3))
        assert np.allclose(rho, np.eye(9), atol=1e-10)

    def test_entropy_limits(self):
        assert projection_entropy([1.0, 0.0, 0.0]) == 0.0
        n = 8
        uniform = np.full(n, 1.0 / n)
        assert projection_entropy(uniform) == pytest.approx(np.log(n))

    def test_entropy_rejects_bad(self):
        with pytest.raises(ValueError):
            projection_entropy([1.5, -0.5])


class TestForceProjection:
    def test_parseval(self):
        iso = random_mode_set(3, seed=6)
        f = np.random.default_rng(7).normal(size=9)
        g = force_projection(f, iso)
        assert g.sum() == pytest.approx(f @ f, rel=1e-12)

    def test_svc_composition(self):
        g = np.array([0.5, 0.25])
        s = np.array([1.0, 2.0])
        assert vibronic_coupling_entropy(g, s) == pytest.approx(1.0)


class TestHuangRhys:
    def test_1d_analytic(self):
        """Displaced harmonic oscillator: S = m w d^2 / (2 hbar) in a.u."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = rng.uniform(1.0, 50.0)        # amu
            w = rng.uniform(0.5, 5.0)         # internal units
            d = rng.uniform(0.001, 0.5)       # Angstrom
            K = np.zeros((6, 6))
            K[0, 0] = m * w**2
            modes = NormalModeSet(
                frequencies=np.array([w] + [0.0] * 5),
                modes=np.vstack([np.eye(6)[:1], np.eye(6)[1:]]),
                masses=np.array([m, m]),
            )
            rg = np.zeros((2, 3))
            re = rg.copy()
            re[0, 0] = d
            s = huang_rhys(rg, re, modes.masses, modes)
            m_au = m * AMU_TO_ME
            w_au = w * VIB_FREQ_TO_AU
            d_au = d * ANGSTROM_TO_BOHR
            expect = m_au * w_au * d_au**2 / 2.0
            assert s[0] == pytest.approx(expect, rel=1e-8)
            assert np.all(s[1:] == 0.0)

    def test_floor_masks_soft_modes(self):
        ms = random_mode_set(2, seed=9)
        soft = NormalModeSet(
            frequencies=np.full(6, 1.0 / VIB_FREQ_TO_CM1),  # 1 cm^-1
            modes=ms.modes, masses=ms.masses,
        )
        s = huang_rhys(np.zeros((2, 3)), np.ones((2, 3)) * 0.01,
                       soft.masses, soft)
        assert np.all(s == 0.0)

    def test_weighted_hr(self):
        """Weights w_k^2 / w_max^2 over the real modes: 521 and 1043
        cm^-1 are above the floor, 5 cm^-1 is below it and gets 0."""
        ms = NormalModeSet(frequencies=[1.0, 2.0, 5.0 / VIB_FREQ_TO_CM1],
                           modes=np.eye(3), masses=[12.0])
        out = weighted_hr(np.array([0.5, 0.5, 0.5]), ms)
        assert out[1] == pytest.approx(0.5)
        assert out[0] == pytest.approx(0.5 / 4.0)
        assert out[2] == 0.0


class TestDirectFC:
    def test_identity_with_insertion(self):
        masses_e = np.array([12.0, 12.0])
        iso = random_mode_set(2, seed=10, masses=masses_e)
        masses_c = np.concatenate([np.full(3, 40.0), masses_e])
        emb = random_mode_set(5, seed=11, masses=masses_c)
        f = np.random.default_rng(12).normal(size=6)
        val = direct_fc_metric(f, emb, emitter_atoms=range(3, 5),
                               isolated=iso)
        assert val >= 0.0

    def test_report_assembles(self):
        masses_e = np.array([12.0, 12.0])
        iso = random_mode_set(2, seed=13, masses=masses_e)
        masses_c = np.concatenate([np.full(3, 40.0), masses_e])
        emb = random_mode_set(5, seed=14, masses=masses_c)
        rng = np.random.default_rng(15)
        rep = vibronic_report(
            iso, emb, range(3, 5), rng.normal(size=6),
            rng.normal(size=(2, 3)) * 0.01, rng.normal(size=(2, 3)) * 0.01,
        )
        assert rep.svc >= 0.0
        assert rep.sum_g == pytest.approx(rep.g.sum())
        assert len(rep.huang_rhys) == 6


class TestModeIO:
    def test_roundtrip(self, tmp_path):
        ms = random_mode_set(3, seed=16)
        p = tmp_path / "modes.json"
        save_mode_set(ms, p)
        back = load_mode_set(p)
        assert np.allclose(back.frequencies, ms.frequencies, rtol=1e-12)
        assert np.allclose(back.modes, ms.modes)
        assert json.loads(p.read_text())["convention"] == \
            MASS_WEIGHTED_ORTHONORMAL

    def test_internal_file_loads_as_written(self, tmp_path):
        ms = random_mode_set(3, seed=20)
        p = tmp_path / "modes.json"
        save_mode_set(ms, p)
        data = json.loads(p.read_text())
        back = load_mode_set(p)
        assert np.array_equal(back.modes, data["modes"])
        assert np.array_equal(back.frequencies,
                              np.array(data["frequencies_cm1"])
                              / VIB_FREQ_TO_CM1)

    @pytest.mark.parametrize("conv", [INVERSE_MASS_NORMALIZED,
                                      MASS_WEIGHTED_THEN_NORMALIZED])
    def test_external_file_converted_on_load(self, tmp_path, conv):
        """An exported set loads as the mass-weighted-orthonormal set it
        came from, with the file's frequencies."""
        ms = random_mode_set(3, seed=21)
        p = tmp_path / "modes.json"
        save_mode_set(ms, p)
        data = json.loads(p.read_text())
        sqrt_m = np.repeat(np.sqrt(ms.masses), 3)
        data["modes"] = (3.0 * ms.modes / sqrt_m[None, :]).tolist()
        data["convention"] = conv
        p.write_text(json.dumps(data))
        back = load_mode_set(p)
        assert np.allclose(back.modes, ms.modes, rtol=0, atol=1e-12)
        assert np.array_equal(back.frequencies,
                              np.array(data["frequencies_cm1"])
                              / VIB_FREQ_TO_CM1)

    def test_unknown_convention_rejected(self, tmp_path):
        p = tmp_path / "modes.json"
        save_mode_set(random_mode_set(2, seed=22), p)
        data = json.loads(p.read_text())
        data["convention"] = "bogus"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="bogus"):
            load_mode_set(p)

    @pytest.mark.parametrize("key", ["frequencies_cm1", "modes", "masses_amu"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, key, bad):
        p = tmp_path / "modes.json"
        save_mode_set(random_mode_set(2, seed=17), p)
        data = json.loads(p.read_text())
        if key == "modes":
            data[key][1][4] = bad
        else:
            data[key][1] = bad
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="non-finite"):
            load_mode_set(p)

    def test_save_is_strict_json(self, tmp_path):
        ms = random_mode_set(2, seed=19)
        p = tmp_path / "modes.json"
        save_mode_set(ms, p)
        assert p.read_text() == json.dumps({
            "frequencies_cm1": ms.frequencies_cm1.tolist(),
            "modes": ms.modes.tolist(), "masses_amu": ms.masses.tolist(),
            "convention": MASS_WEIGHTED_ORTHONORMAL})
        p.unlink()
        ms.modes[1, 4] = np.nan
        with pytest.raises(FloatingPointError, match="modes.json"):
            save_mode_set(ms, p)
        assert not p.exists()

    def test_non_positive_mass_rejected(self):
        ms = random_mode_set(2, seed=18)
        with pytest.raises(ValueError, match="masses"):
            NormalModeSet(ms.frequencies, ms.modes, np.array([12.0, 0.0]))
