"""Physical constants, unit conversions, and per-element data tables.

Internal unit conventions:
  lengths in Angstrom, energies in eV, masses in amu.
  Vibrational frequencies are carried in sqrt(eV / (amu * A^2)) as produced
  by diagonalizing a mass-weighted Hessian in those units; helpers below
  convert to cm^-1 or Hartree atomic units where needed.
"""

from __future__ import annotations

import math

# CODATA 2018
PLANCK_H_JS = 6.62607015e-34          # J s (exact)
SPEED_OF_LIGHT_M_S = 299792458.0      # m/s (exact)
ELEMENTARY_CHARGE_C = 1.602176634e-19  # C (exact)
BOHR_RADIUS_M = 0.529177210903e-10    # m
AMU_KG = 1.66053906660e-27            # kg
ELECTRON_MASS_KG = 9.1093837015e-31   # kg
HARTREE_EV = 27.211386245988          # eV

BOHR_RADIUS_A = BOHR_RADIUS_M * 1e10
ANGSTROM_TO_BOHR = 1.0 / BOHR_RADIUS_A
AMU_TO_ME = AMU_KG / ELECTRON_MASS_KG
EV_TO_HARTREE = 1.0 / HARTREE_EV

# sqrt(eV/(amu A^2))  ->  rad/s
_VIB_OMEGA_SI = math.sqrt(ELEMENTARY_CHARGE_C / (AMU_KG * 1e-20))
# sqrt(eV/(amu A^2))  ->  cm^-1   (approx. 521.47)
VIB_FREQ_TO_CM1 = _VIB_OMEGA_SI / (2.0 * math.pi * SPEED_OF_LIGHT_M_S * 100.0)
# sqrt(eV/(amu A^2))  ->  Hartree atomic units of angular frequency
VIB_FREQ_TO_AU = math.sqrt(EV_TO_HARTREE / (AMU_TO_ME * ANGSTROM_TO_BOHR**2))

# Stark-shift conversions (App.-style coefficients).
# Linear: 1 a.u. of dipole in a 1 kV/cm field, expressed as a frequency shift.
#   e*a0 * 1e5 V/m / h   ->  Hz, then to MHz.   approx. 1279.5 MHz kV^-1 cm
STARK_LINEAR_MHZ_PER_AU_KVCM = (
    ELEMENTARY_CHARGE_C * BOHR_RADIUS_M * 1e5 / PLANCK_H_JS / 1e6
)
# Quadratic: 1 a.u. of polarizability at 1 (kV/cm)^2.
#   e^2 a0^2 / E_h * (1e5 V/m)^2 / h  ->  Hz, then to MHz.
_AU_POLARIZABILITY_SI = (
    ELEMENTARY_CHARGE_C**2 * BOHR_RADIUS_M**2
    / (HARTREE_EV * ELEMENTARY_CHARGE_C)
)
STARK_QUADRATIC_MHZ_PER_AU_KVCM2 = _AU_POLARIZABILITY_SI * 1e10 / PLANCK_H_JS / 1e6

# Standard atomic weights (amu).
ATOMIC_MASSES = {
    "H": 1.008, "He": 4.002602, "Li": 6.94, "Be": 9.0121831, "B": 10.81,
    "C": 12.011, "N": 14.007, "O": 15.999, "F": 18.998403163, "Ne": 20.1797,
    "Na": 22.98976928, "Mg": 24.305, "Al": 26.9815385, "Si": 28.085,
    "P": 30.973761998, "S": 32.06, "Cl": 35.45, "Ar": 39.948,
    "K": 39.0983, "Ca": 40.078, "Ti": 47.867, "Cr": 51.9961, "Mn": 54.938044,
    "Fe": 55.845, "Co": 58.933194, "Ni": 58.6934, "Cu": 63.546, "Zn": 65.38,
    "Br": 79.904, "I": 126.90447,
}

# Covalent radii in Angstrom (Cordero et al. values, single-bond).
COVALENT_RADII = {
    "H": 0.31, "He": 0.28, "Li": 1.28, "Be": 0.96, "B": 0.84,
    "C": 0.76, "N": 0.71, "O": 0.66, "F": 0.57, "Ne": 0.58,
    "Na": 1.66, "Mg": 1.41, "Al": 1.21, "Si": 1.11,
    "P": 1.07, "S": 1.05, "Cl": 1.02, "Ar": 1.06,
    "K": 2.03, "Ca": 1.76, "Ti": 1.60, "Cr": 1.39, "Mn": 1.39,
    "Fe": 1.32, "Co": 1.26, "Ni": 1.24, "Cu": 1.32, "Zn": 1.22,
    "Br": 1.20, "I": 1.39,
}


def atomic_mass(symbol: str) -> float:
    try:
        return ATOMIC_MASSES[symbol]
    except KeyError:
        raise KeyError(f"no tabulated mass for element '{symbol}'") from None


def covalent_radius(symbol: str) -> float:
    try:
        return COVALENT_RADII[symbol]
    except KeyError:
        raise KeyError(f"no tabulated covalent radius for element '{symbol}'") from None
