"""Deterministic benchmark inputs, built from numpy and the stdlib only.

Nothing here imports spescreen: the parent commit and a change under test
receive byte-identical files for the same seed. Every writer emits the
file format the CLI reads (TSV SMILES tables, extended XYZ, LJ-parameter
JSON, excited-state JSON, candidate CSV) with its own formatting code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

# hexagon lattice: center (a, b) sits at sqrt3*(a + b/2), 1.5*b; vertices are
# kept in integer units of (sqrt3/2, 1/2) so shared vertices dedupe exactly
_HEX_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
_HEX_VERTEX_OFFSETS = ((0, 2), (-1, 1), (-1, -1), (0, -2), (1, -1), (1, 1))

# dibenzoterrylene: terrylene plus one benzo ring on each outer naphthalene
DBT_HEXAGONS = ((0, 0), (1, 0), (-1, 2), (0, 2), (-2, 4), (-1, 4), (0, 1),
                (-1, 3), (-1, 0), (0, 4))

AR_LJ = {"Ar,Ar": [0.0104, 3.4]}
AR_C_LJ = {"Ar,Ar": [0.0104, 3.4], "C,C": [0.0030, 3.4],
           "Ar,C": [0.0056, 3.4]}


# --- SMILES ----------------------------------------------------------------

def hexagon_graph(hexagons):
    """(n_atoms, edges) of the all-carbon graph of fused hexagons."""
    index = {}
    edges = set()
    for a, b in hexagons:
        cx, cy = 2 * a + b, 3 * b
        ring = []
        for dx, dy in _HEX_VERTEX_OFFSETS:
            ring.append(index.setdefault((cx + dx, cy + dy), len(index)))
        for k in range(6):
            i, j = ring[k], ring[(k + 1) % 6]
            edges.add((min(i, j), max(i, j)))
    return len(index), sorted(edges)


def random_polyhex(rng, n_rings):
    """A random hole-free cluster of n_rings fused hexagons."""
    while True:
        cells = [(0, 0)]
        while len(cells) < n_rings:
            a, b = cells[int(rng.integers(len(cells)))]
            da, db = _HEX_NEIGHBORS[int(rng.integers(6))]
            if (a + da, b + db) not in cells:
                cells.append((a + da, b + db))
        n_atoms, edges = hexagon_graph(cells)
        if len(edges) - n_atoms + 1 == n_rings:   # no enclosed hole
            return cells


def aromatic_smiles(n_atoms, edges):
    """Lowercase-carbon SMILES of a connected graph by DFS with ring closures."""
    adj = [[] for _ in range(n_atoms)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    for nbrs in adj:
        nbrs.sort()
    children = [[] for _ in range(n_atoms)]
    closures = [[] for _ in range(n_atoms)]   # (partner, opens_here)
    order = {0: 0}
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        atom, parent, it = stack[-1]
        for nxt in it:
            if nxt == parent:
                continue
            if nxt not in order:
                order[nxt] = len(order)
                children[atom].append(nxt)
                stack.append((nxt, atom, iter(adj[nxt])))
                break
            if order[nxt] < order[atom]:
                closures[nxt].append((atom, True))
                closures[atom].append((nxt, False))
        else:
            stack.pop()
    out = []
    free = list(range(1, 100))
    label = {}

    def digit(num):
        return str(num) if num < 10 else f"%{num:02d}"

    emit = [("atom", 0)]
    while emit:
        kind, item = emit.pop()
        if kind != "atom":
            out.append(item)
            continue
        out.append("c")
        released = []
        for partner, opens in sorted(closures[item], key=lambda t: order[t[0]]):
            key = (min(item, partner), max(item, partner))
            if opens:
                label[key] = free.pop(0)
                out.append(digit(label[key]))
            else:
                out.append(digit(label[key]))
                released.append(label.pop(key))
        free = sorted(free + released)
        kids = children[item]
        tail = [("atom", kids[-1])] if kids else []
        for kid in reversed(kids[:-1]):
            tail += [("text", ")"), ("atom", kid), ("text", "(")]
        emit.extend(tail)
    return "".join(out)


def random_chain(rng):
    """Small branched heteroatom chain (the acceptance-suite recipe)."""
    atoms = ["C", "C", "C", "C", "N", "O", "S"]
    n = int(rng.integers(1, 9))
    out = []
    depth = 0
    last = ""
    for i in range(n):
        if i and last == "C" and rng.random() < 0.25:
            out.append("(")
            depth += 1
        last = atoms[int(rng.integers(len(atoms)))]
        out.append(last)
        if depth and rng.random() < 0.4:
            out.append(")")
            depth -= 1
            last = ")"
    out.extend(")" * depth)
    return "".join(out)


def smiles_rows(seed, n_rows, pah_frac=0.3, max_rings=9):
    """(id, smiles) rows: DBT first, then PAHs of 2..max_rings rings and chains.

    PAH ring counts cycle through 2..max_rings so every seed carries the same
    ring-size mix; the seed picks the shapes, the chains and the row order.
    """
    rng = np.random.default_rng(seed)
    n_pah = int(round(pah_frac * n_rows))
    body = []
    for k in range(n_pah):
        cells = random_polyhex(rng, 2 + k % (max_rings - 1))
        body.append(aromatic_smiles(*hexagon_graph(cells)))
    body += [random_chain(rng) for _ in range(n_rows - 1 - n_pah)]
    body = [body[k] for k in rng.permutation(len(body))]
    rows = [("dbt", aromatic_smiles(*hexagon_graph(DBT_HEXAGONS)))]
    rows += [(f"m{k:05d}", smi) for k, smi in enumerate(body)]
    return rows


def write_smiles_table(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id\tsmiles\n")
        for cid, smi in rows:
            fh.write(f"{cid}\t{smi}\n")


# --- structures --------------------------------------------------------------

def write_xyz(path, elements, positions, cell=None):
    lines = [str(len(elements))]
    comment = ""
    if cell is not None:
        comment = 'Lattice="' + " ".join(
            f"{x:.8f}" for x in np.asarray(cell).ravel()) + '"'
    lines.append(comment)
    for e, p in zip(elements, positions):
        lines.append(f"{e} {p[0]:.8f} {p[1]:.8f} {p[2]:.8f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cubic_lattice(n_side, spacing=3.0):
    """Simple-cubic Ar lattice positions and its orthorhombic cell."""
    idx = np.array([[i, j, k] for i in range(n_side) for j in range(n_side)
                    for k in range(n_side)], dtype=float)
    return idx * spacing, np.eye(3) * n_side * spacing


def benzene_ring(radius=1.4):
    ang = np.arange(6) * np.pi / 3.0
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang),
                            np.zeros(6)])


def monoclinic_complex(rng, n_side=(4, 3, 3), spacing=3.6, beta_deg=100.0,
                       n_removed=4, clearance=2.6):
    """Ar host in a skewed cell with a C6 guest listed last.

    Host atoms sit on the lattice of the monoclinic cell with a small seeded
    jitter; the n_removed atoms nearest the cell center make room for a
    C6 ring in a seeded orientation, redrawn until every C-Ar distance is at
    least `clearance`. The atom count is the same for every seed.
    """
    a, b, c = (spacing * k for k in n_side)
    beta = np.deg2rad(beta_deg)
    cell = np.array([[a, 0.0, 0.0], [0.0, b, 0.0],
                     [c * np.cos(beta), 0.0, c * np.sin(beta)]])
    frac = np.array([[i / n_side[0], j / n_side[1], k / n_side[2]]
                     for i in range(n_side[0]) for j in range(n_side[1])
                     for k in range(n_side[2])])
    host = frac @ cell + rng.normal(scale=0.05, size=(len(frac), 3))
    center = 0.5 * (cell[0] + cell[1] + cell[2])
    nearest = np.argsort(np.linalg.norm(host - center, axis=1))
    host = host[np.sort(nearest[n_removed:])]
    for _ in range(1000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        kx = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                       [-axis[1], axis[0], 0]])
        rot = np.eye(3) + np.sin(angle) * kx + (1 - np.cos(angle)) * kx @ kx
        guest = benzene_ring() @ rot.T + center
        d = np.linalg.norm(host[:, None, :] - guest[None, :, :], axis=2)
        if d.min() >= clearance:
            break
    else:
        raise ValueError("no guest orientation clears the host")
    elements = ["Ar"] * len(host) + ["C"] * 6
    return elements, np.vstack([host, guest]), cell


# --- spectroscopy and candidate records ---------------------------------------

def state_table(rng, n_singlets=4, n_triplets=6):
    e_s1 = float(rng.uniform(1.8, 2.6))
    singlets = [{"energy_eV": e_s1 + 0.3 * k, "fosc": float(rng.uniform(0, 1)),
                 "rotary_1e40cgs": float(rng.normal()),
                 "lambda_nm": 1239.84198 / (e_s1 + 0.3 * k)}
                for k in range(n_singlets)]
    triplets = [{"energy_eV": float(rng.uniform(0.8 * e_s1, 1.3 * e_s1)),
                 "soc_s1_cm1": float(rng.uniform(0, 2))}
                for _ in range(n_triplets)]
    return {"singlets": singlets, "triplets": triplets,
            "gs_soc_t1_cm1": float(rng.uniform(0, 1))}


CANDIDATE_COLUMNS = (
    "id", "tanimoto", "fosc_abs", "fosc_em", "lambda_abs_nm", "lambda_em_nm",
    "rotary_1e40cgs", "soc", "rsoc", "gssoc", "svc", "e_bind_eV",
)


def candidate_rows(rng, n):
    rows = []
    for i in range(n):
        rows.append([
            f"c{i:04d}", rng.uniform(0, 1), rng.uniform(0, 1),
            rng.uniform(0, 1), rng.uniform(300, 900), rng.uniform(300, 900),
            rng.normal(), rng.uniform(0, 2), rng.uniform(0, 2),
            rng.uniform(0, 1), rng.uniform(0, 3), rng.uniform(-2, 0),
        ])
    return rows


def jittered_rows(rows, rng, scale=0.01):
    """Rows with every value scaled by 1 + N(0, scale), in a seeded order."""
    out = [[r[0]] + [v * (1.0 + rng.normal(scale=scale)) for v in r[1:]]
           for r in rows]
    return [out[k] for k in rng.permutation(len(out))]


def write_candidates(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANDIDATE_COLUMNS)
        for row in rows:
            writer.writerow([row[0]] + [f"{v:.4f}" for v in row[1:]])


def write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


# --- bookkeeping ----------------------------------------------------------------

def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def describe(path, **size):
    """Digest and size record for one generated input file."""
    return {"sha256": sha256_file(path), "bytes": os.path.getsize(path),
            **size}
