"""Outside-in tracer: wraps spescreen's public functions where they are used.

`cli.py` imports names directly (`from .chem import parse_smiles`),
`embedding` imports `relax` and `chem.fingerprint` imports `parse_smiles`,
so wrapping a function in its defining module alone would miss most calls.
`Tracer.install` replaces the function object in every loaded spescreen
module that holds it, and methods on their class. Spans (name, start,
end, parent) and hook counters stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute); "Class.method" patches the class.
# Functions without a metric of their own are traced so that their time
# counts toward their layer's self time rather than the cli's.
TARGETS = {
    "chem.load_smiles_table": ("spescreen.chem.fingerprint", "load_smiles_table"),
    "chem.parse_smiles": ("spescreen.chem.smiles", "parse_smiles"),
    "chem.morgan_fingerprint": ("spescreen.chem.fingerprint", "morgan_fingerprint"),
    "chem.tanimoto": ("spescreen.chem.fingerprint", "tanimoto"),
    "chem.rank_by_similarity": ("spescreen.chem.fingerprint", "rank_by_similarity"),
    "chem.similarity_summary": ("spescreen.chem.fingerprint", "similarity_summary"),
    "ml.tsne": ("spescreen.ml.tsne", "tsne"),
    "ml.calibrate_bandwidths": ("spescreen.ml.tsne", "calibrate_bandwidths"),
    "ml.perplexity_error": ("spescreen.ml.tsne", "perplexity_error"),
    "ml.hdbscan": ("spescreen.ml.hdbscan", "hdbscan"),
    "ml.gpc_train": ("spescreen.ml.gpc", "gpc_train"),
    "ml.gpc_predict": ("spescreen.ml.gpc", "gpc_predict"),
    "ml.rbf_kernel": ("spescreen.ml.gpc", "rbf_kernel"),
    "ml.pca": ("spescreen.ml.pca", "pca"),
    "ml.feature_matrix": ("spescreen.ml.labeling", "feature_matrix"),
    "ml.label_good": ("spescreen.ml.labeling", "label_good"),
    "potential.energy": ("spescreen.potential", "LennardJonesPotential.energy"),
    "potential.forces": ("spescreen.potential", "LennardJonesPotential.forces"),
    "potential.relax": ("spescreen.potential", "relax"),
    "potential.hessian_finite_difference": ("spescreen.potential",
                                            "hessian_finite_difference"),
    "embedding.embed_emitter": ("spescreen.embedding", "embed_emitter"),
    "embedding.select_most_stable": ("spescreen.embedding", "select_most_stable"),
    "embedding.write_manifest": ("spescreen.embedding", "write_manifest"),
    "structure.parse_xyz": ("spescreen.structure", "parse_xyz"),
    "structure.write_xyz": ("spescreen.structure", "write_xyz"),
    "structure.identify_molecules": ("spescreen.structure", "identify_molecules"),
    "structure.rotate": ("spescreen.structure", "AtomicStructure.rotate"),
    "vibronic.normal_modes": ("spescreen.vibronic", "normal_modes"),
    "vibronic.vibronic_report": ("spescreen.vibronic", "vibronic_report"),
    "vibronic.save_mode_set": ("spescreen.vibronic", "save_mode_set"),
    "vibronic.load_mode_set": ("spescreen.vibronic", "load_mode_set"),
    "spectro.read_candidates_csv": ("spescreen.spectro", "read_candidates_csv"),
    "spectro.write_candidates_csv": ("spescreen.spectro", "write_candidates_csv"),
    "spectro.load_excited_state_table": ("spescreen.spectro",
                                         "load_excited_state_table"),
    "spectro.stark_coefficients": ("spescreen.spectro", "stark_coefficients"),
}


def _pairs(args, kwargs, result):
    n = len(args[1])           # (self, structure)
    return {"pairs": n * (n - 1) // 2}


def _relax(args, kwargs, result):
    return {"iterations": result.iterations,
            "unconverged": int(not result.converged)}


# hooks read counts from arguments and return values of a traced call
HOOKS = {
    "potential.energy": _pairs,
    "potential.forces": _pairs,
    "potential.relax": _relax,
    "chem.load_smiles_table": lambda a, k, r: {"rows": len(r[0])},
    "embedding.embed_emitter": lambda a, k, r: {"accepted": len(r)},
    "ml.tsne": lambda a, k, r: {"n_iter": r.n_iter},
}


class Tracer:
    """Collects spans as (name, start, end, parent index) tuples."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name, func, *args, **kwargs):
        """Call func inside a span of the given name."""
        idx = self._open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name, func):
        hook = HOOKS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        return traced

    def install(self):
        for name, (module_name, attr) in TARGETS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("spescreen") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self):
        """Per-name seconds, self seconds and calls, and calls per parent name."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        parent_calls = defaultdict(int)   # (name, parent name) -> calls
        for k, (name, t0, t1, parent) in enumerate(self.spans):
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - child_time[k]
            calls[name] += 1
            pname = self.spans[parent][0] if parent >= 0 else None
            parent_calls[(name, pname)] += 1
        return total, self_time, calls, parent_calls

    def dump(self, path):
        """Write spans as JSON lines: [index, parent, name, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps([k, parent, name, round(t0, 9),
                                     round(t1, 9)]) + "\n")
