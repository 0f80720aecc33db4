"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured figure and the
tolerance it is judged against, then asserts it. Soft (non-gating)
targets print REPORT lines instead of asserting.
"""

import json
import time

import numpy as np

from spescreen.chem.fingerprint import Fingerprint, morgan_fingerprint, tanimoto
from spescreen.chem.graph import MolecularGraph
from spescreen.chem.smiles import parse_smiles
from spescreen.constants import AMU_TO_ME, ANGSTROM_TO_BOHR, VIB_FREQ_TO_AU
from spescreen.embedding import EmbeddingConfig, binding_energy, embed_emitter, write_manifest
from spescreen.ml.gpc import gpc_predict, gpc_train
from spescreen.ml.labeling import label_good
from spescreen.ml.tsne import tsne
from spescreen.ml.distance import squared_euclidean
from spescreen.potential import LennardJonesPotential, hessian_finite_difference, relax
from spescreen.spectro import (
    ExcitedStateTable,
    SingletState,
    StarkInput,
    TripletState,
    rsoc_metric,
    soc_metric,
    stark_coefficients,
)
from spescreen.structure import AtomicStructure, identify_molecules
from spescreen.vibronic import (
    INVERSE_MASS_NORMALIZED,
    MASS_WEIGHTED_ORTHONORMAL,
    MASS_WEIGHTED_THEN_NORMALIZED,
    NormalModeSet,
    direct_fc_metric,
    huang_rhys,
    mode_overlap_matrix,
    normal_modes,
    reweight_external_modes,
)

from conftest import (
    DBT_CENTERS,
    NEAR_DBT_A_CENTERS,
    NEAR_DBT_B_CENTERS,
    TERRYLENE_CENTERS,
    dimer,
    lj_lattice,
    pah_graph,
)
from test_ml import dense_laplace_oracle, random_records


def _verdict(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _report(num, name, detail):
    print(f"[acceptance {num:02d}] {name}: REPORT ({detail})")


def test_01_stark_reproduction():
    cases = [
        ((0.0458, 644.28), (58.58, -0.0801)),
        ((0.0616, 612.15), (78.84, -0.0761)),
        ((0.0668, 617.43), (85.44, -0.0768)),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for (dmu, dalpha), (a_ref, b_ref) in cases:
        c = stark_coefficients(StarkInput(dmu, dalpha))
        worst = max(worst,
                    abs(c.a_mhz_per_kvcm - a_ref) / abs(a_ref),
                    abs(c.b_mhz_per_kvcm2 - b_ref) / abs(b_ref))
    dt = time.perf_counter() - t0
    _verdict(1, "stark-reproduction", worst <= 0.01,
             f"max rel err {worst:.2e} <= 1e-2, {dt:.2f}s")


def test_02_huang_rhys_oracle():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = rng.uniform(1.0, 50.0)
        w = rng.uniform(0.5, 5.0)
        d = rng.uniform(1e-3, 0.5)
        modes = NormalModeSet(
            frequencies=np.concatenate([[w], np.zeros(5)]),
            modes=np.eye(6),
            masses=np.array([m, m]),
        )
        rg = np.zeros((2, 3))
        re = rg.copy()
        re[0, 0] = d
        s = huang_rhys(rg, re, modes)[0]
        expect = (m * AMU_TO_ME) * (w * VIB_FREQ_TO_AU) \
            * (d * ANGSTROM_TO_BOHR) ** 2 / 2.0
        worst = max(worst, abs(s - expect) / expect)
    dt = time.perf_counter() - t0
    _verdict(2, "huang-rhys-oracle", worst <= 1e-8,
             f"max rel err {worst:.2e} <= 1e-8 over 100 draws, {dt:.2f}s")


def test_03_projection_completeness():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_row = 0.0
    worst_fc = 0.0
    for _ in range(20):
        n_em = int(rng.integers(2, 5))
        n_host = int(rng.integers(6, 61 - n_em))
        masses_e = rng.uniform(1.0, 40.0, size=n_em)
        masses_c = np.concatenate(
            [rng.uniform(1.0, 40.0, size=n_host), masses_e]
        )

        def spd(n3):
            a = rng.normal(size=(n3, n3))
            return a @ a.T

        iso = normal_modes(spd(3 * n_em), masses_e)
        emb = normal_modes(spd(3 * (n_host + n_em)), masses_c)
        atoms = range(n_host, n_host + n_em)
        rho = mode_overlap_matrix(iso, emb, atoms)
        worst_row = max(worst_row, np.abs(rho.sum(axis=1) - 1.0).max())

        forces = rng.normal(size=3 * n_em)
        direct = direct_fc_metric(forces, emb, atoms)
        f_proj = iso.modes @ forces
        cross = iso.modes @ emb.modes[:, np.array(
            [3 * a + k for a in atoms for k in range(3)]
        )].T
        inserted = float(abs((f_proj @ cross).sum()))
        worst_fc = max(worst_fc, abs(direct - inserted))
    dt = time.perf_counter() - t0
    ok = worst_row <= 1e-8 and worst_fc <= 1e-8
    _verdict(3, "projection-completeness", ok,
             f"max row-sum err {worst_row:.2e}, max FC mismatch "
             f"{worst_fc:.2e} <= 1e-8 over 20 fixtures, {dt:.2f}s")


def test_04_embedding_contract(tmp_path):
    t0 = time.perf_counter()
    host = AtomicStructure(
        elements=["Ar"] * 200,
        positions=np.array(
            [[i, j, k] for i in range(5) for j in range(5)
             for k in range(8)], dtype=float,
        ) * 3.0,
        cell=np.diag([15.0, 15.0, 24.0]),
    )
    emitter = dimer(r=1.2)
    cfg = EmbeddingConfig(
        overlap_cutoff=2.0, structures_per_count=1000, max_trials=1000,
        seed=21,
    )
    trials = embed_emitter(host, emitter, cfg)
    labels = identify_molecules(host)
    violations = 0
    for t in trials:
        hp = t.structure.positions[:t.n_host_atoms]
        ep = t.structure.positions[t.n_host_atoms:]
        d = np.linalg.norm(hp[:, None] - ep[None, :], axis=2)
        if d.min() < cfg.overlap_cutoff:
            violations += 1
            continue
        if not (np.all(ep.min(0) > hp.min(0))
                and np.all(ep.max(0) < hp.max(0))):
            violations += 1
            continue
        # brute-force whole-molecule deletion check against the raw host
        d_full = np.linalg.norm(
            host.positions[:, None] - ep[None, :], axis=2
        )
        overlapped = np.unique(
            labels.labels[(d_full < cfg.overlap_cutoff).any(axis=1)]
        )
        keep = [i for i in range(len(host))
                if labels.labels[i] not in set(overlapped.tolist())]
        if not (len(keep) == t.n_host_atoms
                and np.array_equal(host.positions[keep], hp)):
            violations += 1
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_manifest(embed_emitter(host, emitter, cfg), p1, cfg)
    write_manifest(embed_emitter(host, emitter, cfg), p2, cfg)
    identical = p1.read_bytes() == p2.read_bytes()
    dt = time.perf_counter() - t0
    ok = trials and violations == 0 and identical
    _verdict(4, "embedding-contract", ok,
             f"{len(trials)} accepted of 1000 trials, {violations} "
             f"violations, manifests byte-identical={identical}, {dt:.1f}s")


def test_05_binding_energy_identities():
    t0 = time.perf_counter()
    null = binding_energy(e_complex=-7.5, e_emitter=0.0, n_complex=64,
                          n_emitter=0, n_supercell=64, e_supercell=-7.5)
    base = dict(e_emitter=-1.0, n_complex=90, n_emitter=10,
                n_supercell=100, e_supercell=-50.0)
    lin = (binding_energy(e_complex=-61.5, **base)
           - binding_energy(e_complex=-60.0, **base)) - (-1.5)
    dt = time.perf_counter() - t0
    ok = abs(null) <= 1e-12 and abs(lin) <= 1e-12
    _verdict(5, "binding-energy-identities", ok,
             f"null case {abs(null):.1e}, linearity residual "
             f"{abs(lin):.1e} <= 1e-12, {dt:.2f}s")


def test_06_soc_aggregation():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst_oracle = 0.0
    worst_partition = 0.0
    for _ in range(200):
        e_s1 = rng.uniform(1.0, 3.0)
        n = int(rng.integers(1, 11))
        trip = [(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0, 1)))
                for _ in range(n)]
        table = ExcitedStateTable(
            singlets=[SingletState(energy_eV=e_s1)],
            triplets=[TripletState(energy_eV=e, soc_s1_cm1=s)
                      for e, s in trip],
        )
        soc, rsoc = soc_metric(table), rsoc_metric(table)
        # enumerate in the table's energy order so equality is exact
        ordered = sorted(trip)
        below = np.sqrt(sum(s**2 for e, s in ordered if e <= e_s1))
        above = np.sqrt(sum(s**2 for e, s in ordered if e > e_s1))
        worst_oracle = max(worst_oracle, abs(soc - below),
                           abs(rsoc - above))
        total = sum(s**2 for _, s in trip)
        worst_partition = max(worst_partition,
                              abs(soc**2 + rsoc**2 - total))
    dt = time.perf_counter() - t0
    ok = worst_oracle == 0.0 and worst_partition <= 1e-12
    _verdict(6, "soc-aggregation", ok,
             f"oracle mismatch {worst_oracle:.1e}, partition residual "
             f"{worst_partition:.1e} <= 1e-12, {dt:.2f}s")


def _random_molecule(rng):
    """Random small organic SMILES built from a branching chain."""
    atoms = ["C", "C", "C", "C", "N", "O", "S"]
    n = int(rng.integers(1, 9))
    out = []
    depth = 0
    last = ""
    for i in range(n):
        # branch only from carbon so divalent atoms keep a legal valence
        if i and last == "C" and rng.random() < 0.25:
            out.append("(")
            depth += 1
        last = atoms[int(rng.integers(len(atoms)))]
        out.append(last)
        if depth and rng.random() < 0.4:
            out.append(")")
            depth -= 1
            last = ")"  # no second branch on the same attachment atom
    out.extend(")" * depth)
    return "".join(out)


def test_07_fingerprint_suite():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(1000):
        g = parse_smiles(_random_molecule(rng))
        fp = morgan_fingerprint(g)
        if tanimoto(fp, fp) != 1.0:                      # identity
            failures += 1
            continue
        other = morgan_fingerprint(parse_smiles(_random_molecule(rng)))
        if tanimoto(fp, other) != tanimoto(other, fp):   # symmetry
            failures += 1
            continue
        perm = rng.permutation(len(g))                   # relabeling
        inv = np.argsort(perm)
        shuffled = MolecularGraph(
            atoms=[g.atoms[perm[k]] for k in range(len(g))],
            bonds=[type(b)(int(inv[b.i]), int(inv[b.j]), b.order)
                   for b in g.bonds],
        )
        if morgan_fingerprint(shuffled) != fp:
            failures += 1
    # hand-counted fixture: a=4, b=5, c=2
    a = np.zeros(64, dtype=bool)
    b = np.zeros(64, dtype=bool)
    a[[1, 2, 3, 10]] = True
    b[[2, 3, 20, 30, 40]] = True
    exact = tanimoto(Fingerprint(a, 64, 2), Fingerprint(b, 64, 2)) \
        == 2 / 7
    dt = time.perf_counter() - t0
    _verdict(7, "fingerprint-suite", failures == 0 and exact,
             f"{failures} property failures in 1000 cases, hand-counted "
             f"fixture exact={exact}, {dt:.2f}s")

    # soft targets (non-gating): large-PAH similarity against references
    g_dbt = pah_graph(DBT_CENTERS)
    g_ter = pah_graph(TERRYLENE_CENTERS)
    g_a = pah_graph(NEAR_DBT_A_CENTERS)
    g_b = pah_graph(NEAR_DBT_B_CENTERS)
    for radius in (1, 2):
        fd = morgan_fingerprint(g_dbt, radius=radius)
        sim_t = tanimoto(fd, morgan_fingerprint(g_ter, radius=radius))
        sim_a = tanimoto(fd, morgan_fingerprint(g_a, radius=radius))
        sim_b = tanimoto(fd, morgan_fingerprint(g_b, radius=radius))
        _report(7, "fingerprint-soft-targets",
                f"radius={radius}: T(dbt,terrylene)={sim_t:.3f} "
                f"(target 0.78+-0.10), top-2 stand-ins {sim_a:.3f}/"
                f"{sim_b:.3f} (target > 0.75)")


def test_08_gpc_oracle():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    x = rng.normal(size=(10, 2))
    y = (x[:, 0] + 0.2 * x[:, 1] > 0).astype(float)
    sigma2, lengthscale = 1.5, 1.0
    model = gpc_train(x, y, sigma2=sigma2, lengthscale=lengthscale)
    x_star = rng.normal(size=(8, 2))
    probs = gpc_predict(model, x_star)
    oracle = dense_laplace_oracle(x, y, x_star, sigma2, lengthscale)
    worst = float(np.max(np.abs(probs - oracle)))

    mid_model = gpc_train(np.array([[-1.0], [1.0]]),
                          np.array([0.0, 1.0]), sigma2=1.0, lengthscale=1.0)
    mid = float(gpc_predict(mid_model, [[0.0]])[0])
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and abs(mid - 0.5) <= 1e-6
    _verdict(8, "gpc-oracle", ok,
             f"max prob deviation {worst:.2e} <= 1e-6, midpoint "
             f"|p-0.5|={abs(mid - 0.5):.2e} <= 1e-6, {dt:.2f}s")


def test_09_tsne_calibration():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    x = np.vstack([
        rng.normal(size=(250, 5)),
        rng.normal(size=(250, 5)) + [10, 0, 0, 0, 0],
    ])
    d2 = squared_euclidean(x)
    r1 = tsne(d2, perplexity=50.0, seed=6, n_iter=400)
    r2 = tsne(d2, perplexity=50.0, seed=6, n_iter=400)
    a, b = r1.embedding[:250], r1.embedding[250:]
    sep = np.linalg.norm(a.mean(0) - b.mean(0))
    spread = max(np.linalg.norm(a - a.mean(0), axis=1).mean(),
                 np.linalg.norm(b - b.mean(0), axis=1).mean())
    deterministic = np.array_equal(r1.embedding, r2.embedding)
    dt = time.perf_counter() - t0
    ok = (r1.perplexity_error < 1e-4 and sep / spread > 2.0
          and deterministic)
    _verdict(9, "tsne-calibration", ok,
             f"perplexity err {r1.perplexity_error:.2e} < 1e-4, "
             f"separation ratio {sep / spread:.2f} > 2, "
             f"deterministic={deterministic}, {dt:.1f}s")


def test_10_labeling_monotonicity():
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(200):
        recs = random_records(rng, int(rng.integers(5, 40)))
        lam = float(rng.uniform(300, 900))
        inclusive = label_good(recs, lam, include_soc=True)
        exclusive = label_good(recs, lam, include_soc=False)
        if not np.all(exclusive[inclusive]):
            violations += 1
    dt = time.perf_counter() - t0
    _verdict(10, "labeling-monotonicity", violations == 0,
             f"{violations} subset violations in 200 record sets, "
             f"{dt:.2f}s")


def test_11_normal_mode_suite():
    t0 = time.perf_counter()
    # analytic homonuclear dimer
    k, m = 4.2, 19.7
    K = np.zeros((6, 6))
    K[0, 0] = K[3, 3] = k
    K[0, 3] = K[3, 0] = -k
    ms = normal_modes(K, [m, m])
    dimer_err = abs(ms.frequencies[-1] - np.sqrt(2 * k / m)) \
        / np.sqrt(2 * k / m)

    # free nonlinear molecule: relaxed LJ trimer has 6 near-zero modes
    lj = LennardJonesPotential({("Ar", "Ar"): (0.0104, 3.4)})
    r0 = 2 ** (1 / 6) * 3.4
    trimer = AtomicStructure(
        elements=["Ar"] * 3,
        positions=np.array([
            [0.0, 0.0, 0.0], [r0 * 1.02, 0.0, 0.0],
            [r0 / 2, r0 * 0.9, 0.05],
        ]),
    )
    relaxed = relax(trimer, lj, fmax=1e-8, max_steps=2000).structure
    modes3 = normal_modes(hessian_finite_difference(relaxed, lj, h=1e-4),
                          relaxed.masses)
    near_zero = int((np.abs(modes3.frequencies_cm1) < 10.0).sum())

    # convention round trips are idempotent
    rng = np.random.default_rng(7)
    a = rng.normal(size=(9, 9))
    base = normal_modes(a @ a.T, [12.0, 1.0, 16.0])
    idempotent = True
    for conv in (INVERSE_MASS_NORMALIZED, MASS_WEIGHTED_THEN_NORMALIZED,
                 MASS_WEIGHTED_ORTHONORMAL):
        src = base.modes if conv == MASS_WEIGHTED_ORTHONORMAL else \
            base.modes / np.repeat(np.sqrt(base.masses), 3)[None, :]
        once = reweight_external_modes(src, base.masses, conv)
        twice = reweight_external_modes(once.modes, base.masses,
                                        MASS_WEIGHTED_ORTHONORMAL)
        if not np.allclose(once.modes, twice.modes, atol=1e-12):
            idempotent = False
    dt = time.perf_counter() - t0
    ok = dimer_err <= 1e-6 and near_zero == 6 and idempotent
    _verdict(11, "normal-mode-suite", ok,
             f"dimer rel err {dimer_err:.1e} <= 1e-6, near-zero modes "
             f"{near_zero}/6, convention idempotent={idempotent}, "
             f"{dt:.2f}s")
