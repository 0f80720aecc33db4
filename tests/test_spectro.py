"""Spin-orbit aggregates, Stark coefficients, candidate records."""

import numpy as np
import pytest

from spescreen.spectro import (
    CandidateRecord,
    ExcitedStateTable,
    SingletState,
    StarkInput,
    TripletState,
    gssoc_metric,
    read_candidates_csv,
    rsoc_metric,
    soc_metric,
    stark_coefficients,
    write_candidates_csv,
)


def table(singlets, triplets, gs=None):
    return ExcitedStateTable(
        singlets=[SingletState(energy_eV=e, fosc=f) for e, f in singlets],
        triplets=[TripletState(energy_eV=e, soc_s1_cm1=s) for e, s in triplets],
        gs_soc_t1_cm1=gs,
    )


class TestSOC:
    def test_partition(self):
        t = table([(2.0, 0.1)],
                  [(1.5, 0.3), (1.8, 0.4), (2.5, 0.2), (3.0, 0.1)], gs=0.05)
        soc, rsoc = soc_metric(t), rsoc_metric(t)
        total = sum(x**2 for x in (0.3, 0.4, 0.2, 0.1))
        assert soc**2 + rsoc**2 == pytest.approx(total, abs=1e-12)
        assert gssoc_metric(t) == 0.05

    @pytest.mark.parametrize("singlet, triplet, gs", [
        ({"energy_eV": np.nan}, {"energy_eV": 1.5}, None),
        ({"energy_eV": 2.0, "fosc": np.inf}, {"energy_eV": 1.5}, None),
        ({"energy_eV": 2.0, "lambda_nm": -np.inf}, {"energy_eV": 1.5}, None),
        ({"energy_eV": 2.0}, {"energy_eV": np.nan}, None),
        ({"energy_eV": 2.0}, {"energy_eV": 1.5, "soc_s1_cm1": np.nan}, None),
        ({"energy_eV": 2.0}, {"energy_eV": 1.5}, np.inf),
        ({"energy_eV": "2.0"}, {"energy_eV": 1.5}, None),
    ])
    def test_non_finite_rejected(self, singlet, triplet, gs):
        with pytest.raises(ValueError, match="finite"):
            ExcitedStateTable(singlets=[SingletState(**singlet)],
                              triplets=[TripletState(**triplet)],
                              gs_soc_t1_cm1=gs)

    def test_degenerate_goes_to_soc(self):
        t = table([(2.0, 0.1)], [(2.0, 0.7)])
        assert soc_metric(t) == pytest.approx(0.7)
        assert rsoc_metric(t) == 0.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            e_s1 = rng.uniform(1.0, 3.0)
            n = rng.integers(1, 11)
            trip = [(rng.uniform(0.5, 4.0), rng.uniform(0, 1))
                    for _ in range(n)]
            t = table([(e_s1, 0.1)], trip)
            below = np.sqrt(sum(s**2 for e, s in trip if e <= e_s1))
            above = np.sqrt(sum(s**2 for e, s in trip if e > e_s1))
            assert soc_metric(t) == pytest.approx(below, abs=1e-14)
            assert rsoc_metric(t) == pytest.approx(above, abs=1e-14)

    def test_missing_gs_element(self):
        t = table([(2.0, 0.1)], [(1.0, 0.2)])
        with pytest.raises(ValueError):
            gssoc_metric(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            table([(-1.0, 0.1)], [])
        with pytest.raises(ValueError):
            table([(2.0, -0.1)], [])
        with pytest.raises(ValueError):
            table([(2.0, 0.1)], [(1.0, -0.2)])


class TestStark:
    # three reference parameter sets with their published coefficients
    CASES = [
        ((0.0458, 644.28), (58.58, -0.0801)),
        ((0.0616, 612.15), (78.84, -0.0761)),
        ((0.0668, 617.43), (85.44, -0.0768)),
    ]

    @pytest.mark.parametrize("inp,expect", CASES)
    def test_reference_rows(self, inp, expect):
        coeffs = stark_coefficients(StarkInput(*inp))
        assert coeffs.a_mhz_per_kvcm == pytest.approx(expect[0], rel=0.01)
        assert coeffs.b_mhz_per_kvcm2 == pytest.approx(expect[1], rel=0.01)

    def test_shift_evaluation(self):
        coeffs = stark_coefficients(StarkInput(0.05, 600.0))
        e = 2.0
        expect = coeffs.a_mhz_per_kvcm * e + coeffs.b_mhz_per_kvcm2 * e**2
        assert coeffs.shift_mhz(e) == pytest.approx(expect)
        assert coeffs.shift_mhz(-e) == coeffs.shift_mhz(e)

    def test_negative_dipole_rejected(self):
        with pytest.raises(ValueError):
            StarkInput(-0.1, 100.0)

    @pytest.mark.parametrize("inp", [
        (np.nan, 100.0), (np.inf, 100.0), (0.05, np.nan), (0.05, -np.inf),
        ("0.05", 100.0), (10**400, 100.0),
    ])
    def test_non_finite_rejected(self, inp):
        with pytest.raises(ValueError, match="finite"):
            StarkInput(*inp)

    @pytest.mark.parametrize("field", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, field):
        coeffs = stark_coefficients(StarkInput(0.05, 600.0))
        with pytest.raises(ValueError, match="field"):
            coeffs.shift_mhz(field)


class TestCandidates:
    def _record(self, **over):
        base = dict(
            id="c1", tanimoto=0.8, fosc_abs=0.3, fosc_em=0.25,
            lambda_abs_nm=650.0, lambda_em_nm=700.0, rotary_1e40cgs=0.0,
            soc=0.2, rsoc=0.1, gssoc=0.05, svc=1.5, e_bind_eV=-0.5,
        )
        base.update(over)
        return CandidateRecord(**base)

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="svc"):
            self._record(svc=None)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="soc"):
            self._record(soc=float("nan"))

    def test_csv_roundtrip(self, tmp_path):
        recs = [self._record(), self._record(id="c2", tanimoto=0.5)]
        p = tmp_path / "records.csv"
        write_candidates_csv(recs, p)
        back = read_candidates_csv(p)
        assert [r.id for r in back] == ["c1", "c2"]
        assert back[1].tanimoto == pytest.approx(0.5)

    def test_csv_missing_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,tanimoto\nc1,0.5\n")
        with pytest.raises(ValueError):
            read_candidates_csv(p)
