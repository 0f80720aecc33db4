"""Excited-state table ingestion, spin-orbit aggregates, Stark coefficients.

SOC magnitudes are ingested verbatim (cm^-1 assumed); the aggregation
itself is unit-agnostic. Stark coefficients convert atomic-unit dipole and
polarizability differences into MHz per kV/cm shift parameters.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .constants import (
    STARK_LINEAR_MHZ_PER_AU_KVCM,
    STARK_QUADRATIC_MHZ_PER_AU_KVCM2,
)


def _require_finite(name, value):
    """Raise ValueError unless `value` is a finite real number."""
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass
class SingletState:
    energy_eV: float
    fosc: float = 0.0
    rotary_1e40cgs: float = 0.0
    lambda_nm: float = 0.0


@dataclass
class TripletState:
    energy_eV: float
    soc_s1_cm1: float = 0.0  # |<T_i|H_SO|S_1>|


@dataclass
class ExcitedStateTable:
    singlets: list
    triplets: list
    gs_soc_t1_cm1: float | None = None  # |<T_1|H_SO|S_0>|

    def __post_init__(self):
        for state in [*self.singlets, *self.triplets]:
            for f in fields(state):
                _require_finite(f"{type(state).__name__}.{f.name}",
                                getattr(state, f.name))
        if self.gs_soc_t1_cm1 is not None:
            _require_finite("gs_soc_t1_cm1", self.gs_soc_t1_cm1)
        for s in self.singlets:
            if s.energy_eV <= 0:
                raise ValueError("singlet energies must be positive")
            if s.fosc < 0:
                raise ValueError("oscillator strengths must be >= 0")
        for t in self.triplets:
            if t.energy_eV <= 0:
                raise ValueError("triplet energies must be positive")
            if t.soc_s1_cm1 < 0:
                raise ValueError("SOC magnitudes must be >= 0")
        if self.gs_soc_t1_cm1 is not None and self.gs_soc_t1_cm1 < 0:
            raise ValueError("ground-state SOC magnitude must be >= 0")
        self.singlets = sorted(self.singlets, key=lambda s: s.energy_eV)
        self.triplets = sorted(self.triplets, key=lambda t: t.energy_eV)

    @property
    def e_s1(self) -> float:
        if not self.singlets:
            raise ValueError("table has no singlet states (S1 missing)")
        return self.singlets[0].energy_eV


def load_excited_state_table(path) -> ExcitedStateTable:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    singlets = [SingletState(**s) for s in data.get("singlets", [])]
    triplets = [TripletState(**t) for t in data.get("triplets", [])]
    return ExcitedStateTable(
        singlets=singlets,
        triplets=triplets,
        gs_soc_t1_cm1=data.get("gs_soc_t1_cm1"),
    )


def soc_metric(table: ExcitedStateTable) -> float:
    """Root-sum-square SOC over triplets below S1 (exothermic channel).

    Triplets exactly degenerate with S1 count toward this branch.
    """
    e_s1 = table.e_s1
    total = sum(
        t.soc_s1_cm1**2 for t in table.triplets if t.energy_eV <= e_s1
    )
    return float(np.sqrt(total))


def rsoc_metric(table: ExcitedStateTable) -> float:
    """Root-sum-square SOC over triplets above S1 (endothermic channel)."""
    e_s1 = table.e_s1
    total = sum(
        t.soc_s1_cm1**2 for t in table.triplets if t.energy_eV > e_s1
    )
    return float(np.sqrt(total))


def gssoc_metric(table: ExcitedStateTable) -> float:
    """|<T_1|H_SO|S_0>| taken directly from the table."""
    if table.gs_soc_t1_cm1 is None:
        raise ValueError("table carries no T1-S0 SOC element")
    return float(table.gs_soc_t1_cm1)


# --- Stark shift -----------------------------------------------------------

@dataclass
class StarkInput:
    delta_mu_au: float   # |dipole difference|, atomic units
    delta_alpha_au: float  # polarizability difference, atomic units (may be < 0)

    def __post_init__(self):
        _require_finite("delta_mu", self.delta_mu_au)
        _require_finite("delta_alpha", self.delta_alpha_au)
        if self.delta_mu_au < 0:
            raise ValueError("|delta mu| must be >= 0")


@dataclass
class StarkCoefficients:
    a_mhz_per_kvcm: float
    b_mhz_per_kvcm2: float

    def shift_mhz(self, field_kv_cm: float) -> float:
        _require_finite("field", field_kv_cm)
        e = abs(field_kv_cm)
        return self.a_mhz_per_kvcm * e + self.b_mhz_per_kvcm2 * e**2


def stark_coefficients(inp: StarkInput) -> StarkCoefficients:
    """Linear/quadratic shift parameters from h*dnu = |dmu| E - 1/2 dalpha E^2.

    a = |dmu| * C1, b = -1/2 * dalpha * C2 with C1, C2 the atomic-unit to
    MHz-per-(kV/cm) conversion factors derived from physical constants.
    """
    a = inp.delta_mu_au * STARK_LINEAR_MHZ_PER_AU_KVCM
    b = -0.5 * inp.delta_alpha_au * STARK_QUADRATIC_MHZ_PER_AU_KVCM2
    return StarkCoefficients(a_mhz_per_kvcm=a, b_mhz_per_kvcm2=b)


# --- candidate records -----------------------------------------------------

@dataclass
class CandidateRecord:
    id: str
    tanimoto: float
    fosc_abs: float
    fosc_em: float
    lambda_abs_nm: float
    lambda_em_nm: float
    rotary_1e40cgs: float
    soc: float
    rsoc: float
    gssoc: float
    svc: float
    e_bind_eV: float

    def __post_init__(self):
        missing = [
            f.name for f in fields(self)
            if getattr(self, f.name) is None
        ]
        if missing:
            raise ValueError(f"missing candidate fields: {', '.join(missing)}")
        for f in fields(self):
            if f.name == "id":
                continue
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"non-finite candidate field: {f.name}")

    def as_row(self):
        return [getattr(self, c) for c in CANDIDATE_COLUMNS]


# the record table's columns, in field order
CANDIDATE_COLUMNS = tuple(f.name for f in fields(CandidateRecord))


def write_candidates_csv(records, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANDIDATE_COLUMNS)
        for r in records:
            writer.writerow(
                [r.id] + [f"{v:.4f}" for v in r.as_row()[1:]]
            )


def read_candidates_csv(path):
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(CANDIDATE_COLUMNS) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"missing candidate columns: {sorted(missing)}")
        for row in reader:
            kwargs = {"id": row["id"]}
            for c in CANDIDATE_COLUMNS[1:]:
                kwargs[c] = float(row[c])
            records.append(CandidateRecord(**kwargs))
    return records
