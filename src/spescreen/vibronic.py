"""Normal-mode analysis and vibronic coupling metrics.

Every `NormalModeSet` holds mass-weighted-orthonormal mode vectors, the
convention all overlaps and projections need. External mode sets
(Cartesian-displacement style exports) are converted when
`load_mode_set` reads them.

Internal frequency unit is sqrt(eV / (amu A^2)) as produced by the
mass-weighted Hessian eigenproblem; conversions to cm^-1 and Hartree
atomic units live in `constants`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .constants import (
    AMU_TO_ME,
    ANGSTROM_TO_BOHR,
    VIB_FREQ_TO_AU,
    VIB_FREQ_TO_CM1,
)
from .jsonio import write_json

MASS_WEIGHTED_ORTHONORMAL = "mass-weighted-orthonormal"
INVERSE_MASS_NORMALIZED = "inverse-mass-normalized"
MASS_WEIGHTED_THEN_NORMALIZED = "mass-weighted-then-normalized"

# modes at or below this frequency count as rigid-body / numerically zero
FREQUENCY_FLOOR_CM1 = 10.0
_SYMMETRY_TOL = 1e-6   # largest |K - K^T| entry normal_modes accepts, eV/A^2
_FC_CHECK_TOL = 1e-8   # relative agreement of direct_fc_metric's two forms


@dataclass
class NormalModeSet:
    frequencies: np.ndarray   # internal units; negative entries = imaginary modes
    modes: np.ndarray         # (n_modes, 3N), rows are mode vectors
    masses: np.ndarray        # (N,) amu

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.modes = np.asarray(self.modes, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.modes.ndim != 2 or self.modes.shape[1] != 3 * len(self.masses):
            raise ValueError("mode matrix shape does not match 3N coordinates")
        if len(self.frequencies) != len(self.modes):
            raise ValueError("frequency count does not match mode count")
        if not all(np.isfinite(a).all()
                   for a in (self.frequencies, self.modes, self.masses)):
            raise ValueError("mode set holds a non-finite number")
        if np.any(self.masses <= 0):
            raise ValueError("masses must be positive")

    @property
    def n_atoms(self):
        return len(self.masses)

    @property
    def imaginary(self):
        return self.frequencies < 0.0

    @property
    def frequencies_cm1(self):
        return self.frequencies * VIB_FREQ_TO_CM1

    def real_mode_mask(self):
        """True for the real vibrations: above FREQUENCY_FLOOR_CM1."""
        return self.frequencies_cm1 > FREQUENCY_FLOOR_CM1


def canonical_mode_signs(modes) -> np.ndarray:
    """Flip each mode row so that its largest-magnitude component is positive.

    Ties go to the lowest index (the rule of scikit-learn's svd_flip), so
    the signs no longer depend on the ones an eigensolver happens to return.
    `ml.pca` fixes the signs of its components with it too.
    """
    modes = np.asarray(modes, dtype=float)
    lead = modes[np.arange(len(modes)), np.argmax(np.abs(modes), axis=1)]
    return np.where(lead[:, None] < 0.0, -modes, modes)


def normal_modes(hessian, masses) -> NormalModeSet:
    """Diagonalize the mass-weighted Hessian.

    Solves [M^-1/2 K M^-1/2] u = w^2 u; eigenvectors come back orthonormal
    in mass-weighted coordinates, sorted ascending in w^2, with the sign
    convention of `canonical_mode_signs`, and negative eigenvalues flagged
    as imaginary via a negative frequency entry. A non-finite Hessian
    raises FloatingPointError, an asymmetric one ValueError.
    """
    K = np.asarray(hessian, dtype=float)
    masses = np.asarray(masses, dtype=float)
    n3 = 3 * len(masses)
    if K.shape != (n3, n3):
        raise ValueError(f"hessian shape {K.shape} does not match 3N={n3}")
    if not np.isfinite(K).all():
        # checked first: a NaN asymmetry passes the tolerance test
        raise FloatingPointError("hessian has non-finite entries")
    asym = np.abs(K - K.T).max()
    if asym > _SYMMETRY_TOL:
        raise ValueError(f"hessian asymmetry {asym:.3e} exceeds tolerance")
    K = 0.5 * (K + K.T)
    inv_sqrt_m = np.repeat(1.0 / np.sqrt(masses), 3)
    D = K * np.outer(inv_sqrt_m, inv_sqrt_m)
    evals, evecs = np.linalg.eigh(D)
    freqs = np.sign(evals) * np.sqrt(np.abs(evals))
    return NormalModeSet(frequencies=freqs, modes=canonical_mode_signs(evecs.T),
                         masses=masses)


def reweight_external_modes(raw_modes, masses, convention) -> NormalModeSet:
    """Convert an externally exported mode set to mass-weighted-orthonormal.

    Both supported external conventions store vectors proportional to
    Cartesian displacements M^-1/2 u; multiplying by sqrt(M) and
    renormalizing recovers the orthonormal mass-weighted eigenvectors.
    Idempotent for already-converted sets. Frequencies come back zero.
    A row whose norm is zero or not finite (after the sqrt(M) scaling)
    raises ValueError naming the first such row.
    """
    modes = np.asarray(raw_modes, dtype=float)
    freqs = np.zeros(len(modes))
    masses = np.asarray(masses, dtype=float)
    if convention == MASS_WEIGHTED_ORTHONORMAL:
        out = modes
    elif convention in (INVERSE_MASS_NORMALIZED, MASS_WEIGHTED_THEN_NORMALIZED):
        sqrt_m = np.repeat(np.sqrt(masses), 3)
        with np.errstate(over="ignore"):
            out = modes * sqrt_m[None, :]
    else:
        raise ValueError(f"unknown mode convention '{convention}'")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(out, axis=1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    if bad.size:
        raise ValueError(f"mode row {bad[0]} cannot be normalised: its norm "
                         f"is {norms[bad[0], 0]}")
    return NormalModeSet(frequencies=freqs, modes=out / norms, masses=masses)


def _coordinate_indices(emitter_atoms, n_complex_atoms):
    emitter_atoms = np.asarray(list(emitter_atoms), dtype=int)
    if emitter_atoms.size and (
        emitter_atoms.min() < 0 or emitter_atoms.max() >= n_complex_atoms
    ):
        raise IndexError("emitter atom index out of range for the complex")
    return (3 * emitter_atoms[:, None] + np.arange(3)[None, :]).ravel()


def mode_overlap_matrix(isolated: NormalModeSet, embedded: NormalModeSet,
                        emitter_atoms) -> np.ndarray:
    """Squared overlaps rho[i, j] = |<iso_i | emb_j>|^2 over emitter coordinates.

    Rows are isolated emitter modes, columns embedded complex modes; the
    isolated vectors are implicitly zero-padded outside the emitter block.
    When all complex modes are present each row sums to 1.
    """
    idx = _coordinate_indices(emitter_atoms, embedded.n_atoms)
    if len(idx) != isolated.modes.shape[1]:
        raise ValueError(
            "emitter atom map does not cover the isolated mode dimension"
        )
    overlaps = isolated.modes @ embedded.modes[:, idx].T
    return overlaps**2


def projection_entropy(row) -> float:
    """Von Neumann entropy -sum p ln p of one overlap row (0 ln 0 := 0)."""
    p = np.asarray(row, dtype=float)
    if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-9):
        raise ValueError("overlap entries must lie in [0, 1]")
    p = np.clip(p, 0.0, None)
    nz = p > 0.0
    return float(-(p[nz] * np.log(p[nz])).sum())


def force_projection(forces, isolated: NormalModeSet) -> np.ndarray:
    """Per-mode weights g_i = |<F | nu_i>|^2 of the Cartesian forces."""
    F = np.asarray(forces, dtype=float).ravel()
    if F.size != isolated.modes.shape[1]:
        raise ValueError(
            f"force dimension {F.size} does not match modes "
            f"({isolated.modes.shape[1]})"
        )
    return (isolated.modes @ F) ** 2


def vibronic_coupling_entropy(g, s_proj) -> float:
    """Figure of merit: sum_i g_i * S^P_i."""
    g = np.asarray(g, dtype=float)
    s = np.asarray(s_proj, dtype=float)
    if g.shape != s.shape:
        raise ValueError("g and S^P length mismatch")
    return float(g @ s)


def huang_rhys(r_ground, r_excited, masses, modes: NormalModeSet
               ) -> np.ndarray:
    """Dimensionless per-mode displacement factors S_k between two geometries.

    S_k = (w_k / 2) * ((R_g - R_e) . sqrt(M) . u_k)^2 evaluated in Hartree
    atomic units (hbar = 1). Geometries in Angstrom, masses in amu. Rigid
    and imaginary modes (outside `real_mode_mask`) get S_k = 0.
    """
    rg = np.asarray(r_ground, dtype=float).reshape(-1, 3)
    re = np.asarray(r_excited, dtype=float).reshape(-1, 3)
    if rg.shape != re.shape or len(rg) != len(modes.masses):
        raise ValueError("geometry shapes do not match the mode set")
    masses = np.asarray(masses, dtype=float)
    delta = (rg - re).ravel() * np.repeat(np.sqrt(masses), 3)  # sqrt(amu) A
    dk = modes.modes @ delta
    dk_au = dk * np.sqrt(AMU_TO_ME) * ANGSTROM_TO_BOHR
    w_au = np.abs(modes.frequencies) * VIB_FREQ_TO_AU
    s = 0.5 * w_au * dk_au**2
    s[~modes.real_mode_mask()] = 0.0
    return s


def weighted_hr(s_k, modes: NormalModeSet) -> np.ndarray:
    """Frequency-weighted factors w_k^2 S_k / w_max^2 over the real modes
    of `modes` (its `real_mode_mask`); the other modes get 0."""
    s_k = np.asarray(s_k, dtype=float)
    real = modes.real_mode_mask()
    if not np.any(real):
        raise ValueError("no real vibrational modes above the frequency floor")
    w = modes.frequencies[real]
    out = np.zeros_like(s_k)
    out[real] = (w ** 2) * s_k[real] / w.max()**2
    return out


def direct_fc_metric(forces, embedded: NormalModeSet, emitter_atoms,
                     isolated: NormalModeSet | None = None) -> float:
    """Zero-phonon-line strength estimate |sum_j <F | nu_j^embedded>|.

    `forces` lives on the emitter coordinates and is zero-padded into the
    complex. When `isolated` is given, the unity-inserted double-sum form
    is evaluated as well and must agree to a relative `_FC_CHECK_TOL`.
    """
    idx = _coordinate_indices(emitter_atoms, embedded.n_atoms)
    F = np.asarray(forces, dtype=float).ravel()
    if F.size != idx.size:
        raise ValueError("force dimension does not match the emitter atom map")
    padded = np.zeros(3 * embedded.n_atoms)
    padded[idx] = F
    direct = float(abs((embedded.modes @ padded).sum()))
    if isolated is not None:
        f_proj = isolated.modes @ F                       # <F|nu_i>
        cross = isolated.modes @ embedded.modes[:, idx].T  # <nu_i|nu_j^emb>
        inserted = float(abs((f_proj @ cross).sum()))
        if abs(direct - inserted) > _FC_CHECK_TOL * max(1.0, abs(direct)):
            raise AssertionError(
                f"direct ({direct}) and unity-inserted ({inserted}) "
                "zero-phonon metrics disagree"
            )
    return direct


@dataclass
class VibronicReport:
    g: np.ndarray                 # per isolated mode
    s_projection: np.ndarray      # per isolated mode
    huang_rhys: np.ndarray        # per isolated mode
    weighted_huang_rhys: np.ndarray
    svc: float
    sum_g: float
    sum_weighted_hr: float
    direct_fc: float


def vibronic_report(isolated: NormalModeSet, embedded: NormalModeSet,
                    emitter_atoms, forces, r_ground, r_excited
                    ) -> VibronicReport:
    """Assemble all per-candidate vibronic quantities in one pass; modes at
    or below FREQUENCY_FLOOR_CM1 carry no weight."""
    rho = mode_overlap_matrix(isolated, embedded, emitter_atoms)
    s_proj = np.array([projection_entropy(row) for row in rho])
    g = force_projection(forces, isolated)
    mask = isolated.real_mode_mask()
    g = np.where(mask, g, 0.0)
    s_proj_masked = np.where(mask, s_proj, 0.0)
    svc = vibronic_coupling_entropy(g, s_proj_masked)
    s_k = huang_rhys(r_ground, r_excited, isolated.masses, isolated)
    whr = weighted_hr(s_k, isolated)
    fc = direct_fc_metric(forces, embedded, emitter_atoms, isolated=isolated)
    return VibronicReport(
        g=g,
        s_projection=s_proj,
        huang_rhys=s_k,
        weighted_huang_rhys=whr,
        svc=svc,
        sum_g=float(g.sum()),
        sum_weighted_hr=float(whr.sum()),
        direct_fc=fc,
    )


# --- mode-set file adapter -------------------------------------------------

def save_mode_set(modeset: NormalModeSet, path):
    """Write a mode set as JSON; a NaN or infinity raises FloatingPointError
    before the file is opened."""
    payload = {
        "frequencies_cm1": modeset.frequencies_cm1.tolist(),
        "modes": modeset.modes.tolist(),
        "masses_amu": modeset.masses.tolist(),
        "convention": MASS_WEIGHTED_ORTHONORMAL,
    }
    write_json(path, payload)


def load_mode_set(path) -> NormalModeSet:
    """Read a mode set; modes in an external convention pass through
    `reweight_external_modes` and keep the file's frequencies, and modes
    already mass-weighted orthonormal load as written."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    freqs = np.asarray(data["frequencies_cm1"], dtype=float) / VIB_FREQ_TO_CM1
    # validated as written, so a bad mass or shape is named before conversion
    modeset = NormalModeSet(frequencies=freqs, modes=data["modes"],
                            masses=data["masses_amu"])
    if data["convention"] != MASS_WEIGHTED_ORTHONORMAL:
        modeset.modes = reweight_external_modes(
            modeset.modes, modeset.masses, data["convention"]).modes
    return modeset
