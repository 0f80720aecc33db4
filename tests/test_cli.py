"""End-to-end checks of the command-line pipeline driver."""

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import spescreen
from spescreen import cli
from spescreen.chem import fingerprint
from spescreen.cli import _parse_atom_selection, main
from spescreen.potential import LennardJonesPotential, max_force_norm
from spescreen.spectro import CANDIDATE_COLUMNS, write_candidates_csv
from spescreen.structure import parse_xyz, write_xyz
from spescreen.vibronic import normal_modes, save_mode_set

from conftest import dimer, lj_lattice
from test_ml import bench_seed3_records, random_records


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def smiles_table(tmp_path):
    rows = [
        ("ref", "c1ccc2ccccc2c1"), ("x1", "c1ccccc1"), ("x2", "C1CCCCC1"),
        ("x3", "c1ccc2cc3ccccc3cc2c1"), ("x4", "CC(C)=O"),
        ("x5", "c1ccsc1"), ("x6", "C=CC=C"),
        ("x7", "c1ccc(cc1)-c1ccccc1"), ("x8", "CCO"), ("x9", "CCCCC"),
    ]
    p = tmp_path / "table.tsv"
    p.write_text("id\tsmiles\n" + "".join(f"{i}\t{s}\n" for i, s in rows))
    return p


@pytest.fixture()
def records_csv(tmp_path):
    recs = random_records(np.random.default_rng(0), 30)
    p = tmp_path / "records.csv"
    write_candidates_csv(recs, p)
    return p


class TestSimilarity:
    def test_ranking_written(self, runner, tmp_path, smiles_table):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "similarity",
            "--smiles", str(smiles_table), "--reference", "ref",
        ])
        assert result.exit_code == 0, result.output
        lines = (out / "ranking.csv").read_text().splitlines()
        assert lines[0] == "id,tanimoto"
        assert lines[1].startswith("ref,1.000000")
        hist = json.loads((out / "histogram.json").read_text())
        assert sum(hist["counts"]) == 10
        assert (out / "similarity_manifest.json").exists()

    def test_bracket_isotopes_ranked(self, runner, tmp_path):
        """Rows with one-letter bracket bodies ([2H], [N]) are ranked, not
        skipped."""
        table = tmp_path / "iso.csv"
        table.write_text("id,smiles\nbenzene,c1ccccc1\nd1,[2H]c1ccccc1\n"
                         "c13,C[13CH2]O\nradical,C[N]C\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "similarity",
            "--smiles", str(table), "--reference", "benzene",
        ])
        assert result.exit_code == 0, result.output
        ranked = [line.split(",")[0] for line in
                  (out / "ranking.csv").read_text().splitlines()[1:]]
        assert sorted(ranked) == ["benzene", "c13", "d1", "radical"]
        summary = json.loads((out / "histogram.json").read_text())["summary"]
        assert summary["skipped_rows"] == 0
        assert summary["count"] == 4

    def test_missing_inputs_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["--out-dir", str(tmp_path),
                                      "similarity"])
        assert result.exit_code == 2

    def test_each_row_parsed_once(self, runner, tmp_path, smiles_table):
        """An id reference reuses the table's graph; a SMILES is parsed."""
        for reference, ref_parses in (("x3", 0), ("c1ccc2cc3ccccc3cc2c1", 1)):
            out = tmp_path / str(ref_parses)
            with mock.patch.object(cli, "parse_smiles",
                                   wraps=cli.parse_smiles) as ref, \
                    mock.patch.object(fingerprint, "parse_smiles",
                                      wraps=fingerprint.parse_smiles) as rows:
                result = runner.invoke(main, [
                    "--out-dir", str(out), "similarity",
                    "--smiles", str(smiles_table), "--reference", reference,
                ])
            assert result.exit_code == 0, result.output
            assert rows.call_count == 10
            assert ref.call_count == ref_parses
            assert (out / "ranking.csv").read_text().splitlines()[1] \
                .startswith("x3,1.000000")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.text(max_size=12), st.text(max_size=30)),
                    max_size=6),
           st.text(max_size=12))
    def test_fuzzed_table_exit_codes(self, rows, reference):
        """Any table text and reference give exit 0, 2 or 3, never 1."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.tsv")
            with open(path, "w", encoding="utf-8",
                      errors="surrogatepass") as fh:
                fh.write("id\tsmiles\n")
                fh.writelines(f"{i}\t{s}\n" for i, s in rows)
            result = CliRunner().invoke(main, [
                "--out-dir", os.path.join(tmp, "out"), "similarity",
                "--smiles", path, "--reference", reference,
            ])
        assert result.exit_code in (0, 2, 3), (result.output,
                                               result.exc_info)


class TestMap:
    def test_map_csv(self, runner, tmp_path, smiles_table):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "--seed", "4", "map",
            "--smiles", str(smiles_table), "--perplexity", "3",
        ])
        assert result.exit_code == 0, result.output
        lines = (out / "map.csv").read_text().splitlines()
        assert lines[0] == "x,y,cluster,id"
        assert len(lines) == 11

    def test_seed_deterministic(self, runner, tmp_path, smiles_table):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "--out-dir", str(out), "--seed", "4", "map",
                "--smiles", str(smiles_table), "--perplexity", "3",
            ])
            assert result.exit_code == 0, result.output
            outs.append((out / "map.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_counters(self, runner, tmp_path, smiles_table):
        """The t-SNE counters land in the manifest, and rows no bandwidth
        fits are flagged there without failing the stage: x2 and x6 share
        no fingerprint bit with any other row, so every other row is at
        distance 1 from them."""
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "--seed", "4", "map",
            "--smiles", str(smiles_table), "--perplexity", "3",
        ])
        assert result.exit_code == 0, result.output
        params = json.loads((out / "map_manifest.json").read_text())[
            "parameters"]
        assert params["rows_off_target"] == ["x2", "x6"]
        # the uniform P(j|i) over 9 rows has entropy log 9, not log 3
        assert params["perplexity_error"] == pytest.approx(np.log(3.0))
        assert params["n_iter"] == 1000
        assert isinstance(params["lr_halvings"], int)
        assert params["kl_divergence"] > 0.0


class TestEmbed:
    def test_embed_outputs(self, runner, tmp_path):
        host = tmp_path / "host.xyz"
        emitter = tmp_path / "emitter.xyz"
        write_xyz(lj_lattice(5), host)
        write_xyz(dimer(r=1.2), emitter)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "--seed", "7", "embed",
            "--host", str(host), "--emitter", str(emitter),
            "--cutoff", "2.0", "--per-count", "2", "--max-trials", "1500",
        ])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "embedding.json").read_text())
        assert manifest["accepted"]
        for rec in manifest["accepted"]:
            assert (out / rec["xyz"].split("/")[-1]).exists()
        params = json.loads((out / "embed_manifest.json").read_text())[
            "parameters"]
        assert params["trials_accepted"] == len(manifest["accepted"])
        assert params["trials_drawn"] == params["trials_accepted"] + sum(
            params[f"rejected_{k}"]
            for k in ("count_range", "per_count_cap", "containment"))
        # no relaxation without --lj-params
        assert not any("relax" in key for key in params)

    def test_embed_relaxation_counters(self, runner, tmp_path):
        host = tmp_path / "host.xyz"
        emitter = tmp_path / "emitter.xyz"
        write_xyz(lj_lattice(3, spacing=3.8), host)
        write_xyz(dimer(r=1.2), emitter)
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "--seed", "7", "embed",
            "--host", str(host), "--emitter", str(emitter),
            "--cutoff", "2.0", "--min-removed", "2", "--max-removed", "3",
            "--per-count", "1", "--max-trials", "4000",
            "--lj-params", str(lj),
        ])
        assert result.exit_code == 0, result.output
        params = json.loads((out / "embed_manifest.json").read_text())[
            "parameters"]
        n = len(json.loads((out / "embedding.json").read_text())["accepted"])
        assert params["trials_accepted"] == n
        for part in ("emitter", "host"):
            assert params[f"{part}_relax_converged"] is True
            assert params[f"{part}_relax_probes"] >= \
                params[f"{part}_relax_iterations"] + 1
        assert params["trial_relax_probes"] >= \
            params["trial_relax_iterations"] + n
        assert 0 <= params["trial_relax_unconverged"] <= n

    def test_trial_removing_every_molecule_rejected(self, runner, tmp_path):
        """Eight Ar atoms 3 A apart and a 3 A cutoff: some trials remove
        the whole host and count as containment rejections."""
        host = tmp_path / "host.xyz"
        emitter = tmp_path / "emitter.xyz"
        write_xyz(lj_lattice(2, spacing=3.0), host)
        write_xyz(dimer(r=1.2), emitter)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "embed",
            "--host", str(host), "--emitter", str(emitter),
            "--cutoff", "3.0", "--min-removed", "2", "--max-removed", "8",
            "--max-trials", "50",
        ])
        assert result.exit_code == 0, result.output
        params = json.loads((out / "embed_manifest.json").read_text())[
            "parameters"]
        assert result.output == \
            f"accepted {params['trials_accepted']} embedded structures\n"
        assert params["trials_drawn"] == 50
        assert params["rejected_containment"] >= 1
        assert params["trials_drawn"] == params["trials_accepted"] + sum(
            params[f"rejected_{k}"]
            for k in ("count_range", "per_count_cap", "containment"))

    def test_bad_lj_params_exit_2(self, runner, tmp_path):
        host = tmp_path / "host.xyz"
        emitter = tmp_path / "emitter.xyz"
        write_xyz(lj_lattice(3), host)
        write_xyz(dimer(r=1.2), emitter)
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar,Ar": [0.0104, 3.4]}))
        result = runner.invoke(main, [
            "--out-dir", str(tmp_path / "out"), "embed",
            "--host", str(host), "--emitter", str(emitter),
            "--max-trials", "10", "--lj-params", str(lj),
        ])
        assert result.exit_code == 2, result.output
        assert "not two comma-separated elements" in result.output

    @pytest.mark.parametrize("fmax", ["nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("lj", [False, True])
    def test_bad_fmax_exit_2_before_any_work(self, runner, tmp_path, fmax,
                                             lj):
        host = tmp_path / "host.xyz"
        emitter = tmp_path / "emitter.xyz"
        write_xyz(lj_lattice(3), host)
        write_xyz(dimer(r=1.2), emitter)
        argv = ["--host", str(host), "--emitter", str(emitter),
                "--cutoff", "2.0", "--per-count", "1", "--max-trials", "400",
                "--fmax", fmax]
        if lj:
            params = tmp_path / "lj.json"
            params.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
            argv += ["--lj-params", str(params)]
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out-dir", str(out), "embed"] + argv)
        assert result.exit_code == 2, result.output
        assert "--fmax" in result.output
        assert not list(out.iterdir())

    @pytest.mark.parametrize("option, value, message", [
        ("--cutoff", "nan", "overlap cutoff nan is not finite and positive"),
        ("--cutoff", "inf", "overlap cutoff inf is not finite and positive"),
        ("--cutoff", "0", "overlap cutoff 0.0 is not finite and positive"),
        ("--min-removed", "-1", "min_removed must be >= 0"),
    ])
    def test_bad_config_exit_2_before_any_work(self, runner, tmp_path,
                                               option, value, message):
        host = tmp_path / "host.xyz"
        emitter = tmp_path / "emitter.xyz"
        write_xyz(lj_lattice(3), host)
        write_xyz(dimer(r=1.2), emitter)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "embed", "--host", str(host),
            "--emitter", str(emitter), "--max-trials", "400", option, value])
        assert result.exit_code == 2, result.output
        assert result.output == f"[embed] validation error: {message}\n"
        assert not (out / "embedding.json").exists()


class TestModes:
    def test_lj_dimer_modes(self, runner, tmp_path):
        s = tmp_path / "dimer.xyz"
        write_xyz(dimer(r=3.8), s)
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "modes", "--structure", str(s),
            "--lj-params", str(lj), "--relax",
        ])
        assert result.exit_code == 0, result.output
        data = json.loads((out / "modes.json").read_text())
        assert len(data["frequencies_cm1"]) == 6

    def test_negative_atom_count_exit_2(self, runner, tmp_path):
        """A count line of -1 over three rows is refused, not read as a
        two-atom structure."""
        s = tmp_path / "neg.xyz"
        s.write_text("-1\n\n" + "".join(
            f"Ar {3.8 * k} 0.0 0.0\n" for k in range(3)))
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "modes", "--structure", str(s),
            "--lj-params", str(lj),
        ])
        assert result.exit_code == 2, result.output
        assert "neg.xyz" in result.output
        assert not (out / "modes.json").exists()

    @pytest.mark.parametrize("params", [
        {"Ar": [0.0104, 3.4]},                          # one element
        {"Ar,Ar,Ar": [0.0104, 3.4]},                    # three elements
        {"Ar,Ar": [0.0104]},                            # one number
        {"Ar,Ar": [0.0104, -3.4]},                      # negative sigma
        {"Ar,Ar": ["0.0104", 3.4]},                     # not a number
        {"Ar,Ar": [0.0104, 3.4], "Ar,C": [0.005, 3.4],
         "C,Ar": [0.006, 3.4], "C,C": [0.003, 3.4]},  # conflicting
    ], ids=["one-element", "three-elements", "one-number", "negative",
            "string", "conflicting"])
    def test_bad_lj_params_exit_2(self, runner, tmp_path, params):
        s = tmp_path / "dimer.xyz"
        write_xyz(dimer(r=3.8), s)
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps(params))
        result = runner.invoke(main, [
            "--out-dir", str(tmp_path / "out"), "modes", "--structure",
            str(s), "--lj-params", str(lj),
        ])
        assert result.exit_code == 2, result.output
        assert "validation error" in result.output

    def test_needs_potential(self, runner, tmp_path):
        s = tmp_path / "dimer.xyz"
        write_xyz(dimer(r=3.8), s)
        result = runner.invoke(main, [
            "--out-dir", str(tmp_path), "modes", "--structure", str(s),
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("extra, message", [
        (["--relax"], "--relax needs --lj-params"),
        (["--lj-params", "lj.json"], "exactly one of --potential-file"),
    ], ids=["relax", "lj-params"])
    def test_potential_file_conflicts_exit_2(self, runner, tmp_path, extra,
                                             message):
        """Rejected before any work: a relaxation would walk the file's
        constant forces, and the file would silently win over the
        Lennard-Jones parameters."""
        s = tmp_path / "dimer.xyz"
        write_xyz(dimer(r=3.8), s)
        ext = tmp_path / "sp.json"
        ext.write_text(json.dumps({
            "n_atoms": 2, "energy_eV": -0.01,
            "forces_eV_per_A": [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]],
            "hessian_eV_per_A2": np.eye(6).tolist(),
        }))
        (tmp_path / "lj.json").write_text(
            json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        extra = [str(tmp_path / a) if a.endswith(".json") else a
                 for a in extra]
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "modes", "--structure", str(s),
            "--potential-file", str(ext)] + extra)
        assert result.exit_code == 2, result.output
        assert result.output.count("\n") == 1
        assert "validation error" in result.output and message in result.output
        assert not (out / "modes.json").exists()

    def test_manifest_counters(self, runner, tmp_path):
        s = tmp_path / "dimer.xyz"
        write_xyz(dimer(r=3.5), s)
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        for flag in ("--no-relax", "--relax"):
            out = tmp_path / flag
            result = runner.invoke(main, [
                "--out-dir", str(out), "modes", "--structure", str(s),
                "--lj-params", str(lj), flag,
            ])
            assert result.exit_code == 0, result.output
            params = json.loads(
                (out / "modes_manifest.json").read_text())["parameters"]
            assert params["relax"] == (flag == "--relax")
            assert params["fmax"] == 0.01
            assert not {"h", "pair_evaluations"} & params.keys()
            assert params["n_atoms"] == 2
            assert params["hessian_asymmetry"] == 0.0
            assert f"({params['n_imaginary']} imaginary)" in result.output
            relax_keys = {"relax_iterations", "relax_converged"}
            if flag == "--relax":
                assert params["relax_converged"] is True
                assert params["relax_iterations"] > 0
            else:
                assert not relax_keys & params.keys()

    def test_stationary_flag_lj(self, runner, tmp_path):
        """max_force is the force at the Hessian's geometry, one LJ call."""
        s = tmp_path / "dimer.xyz"
        write_xyz(dimer(r=3.5), s)
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        potential = LennardJonesPotential({("Ar", "Ar"): (0.0104, 3.4)})
        for flag, stationary in (("--relax", True), ("--no-relax", False)):
            out = tmp_path / flag
            result = runner.invoke(main, [
                "--out-dir", str(out), "modes", "--structure", str(s),
                "--lj-params", str(lj), flag,
            ])
            assert result.exit_code == 0, result.output
            params = json.loads(
                (out / "modes_manifest.json").read_text())["parameters"]
            assert params["stationary"] is stationary
            assert (params["max_force"] <= params["fmax"]) is stationary
            if not stationary:
                assert params["max_force"] == max_force_norm(
                    potential.forces(parse_xyz(s)))

    @pytest.mark.parametrize("forces, stationary", [
        ([[0.0, 0.0, 0.3], [0.0, 0.0, -0.4]], False),
        ([[0.0, 0.0, 0.006], [0.0, 0.008, 0.0]], True),
    ])
    def test_stationary_flag_external(self, runner, tmp_path, forces,
                                      stationary):
        """With --potential-file, max_force comes from the file's forces."""
        s = tmp_path / "dimer.xyz"
        write_xyz(dimer(r=3.5), s)
        ext = tmp_path / "sp.json"
        ext.write_text(json.dumps({
            "n_atoms": 2, "energy_eV": -0.01, "forces_eV_per_A": forces,
            "hessian_eV_per_A2": np.eye(6).tolist(),
        }))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "modes", "--structure", str(s),
            "--potential-file", str(ext),
        ])
        assert result.exit_code == 0, result.output
        params = json.loads(
            (out / "modes_manifest.json").read_text())["parameters"]
        assert params["max_force"] == max_force_norm(np.array(forces))
        assert params["stationary"] is stationary

    @pytest.mark.parametrize("fmax, flag", [
        ("nan", "--relax"), ("inf", "--relax"), ("-inf", "--relax"),
        ("0", "--relax"), ("nan", "--no-relax"), ("inf", "--no-relax"),
        ("-1", "--no-relax"), ("0", "--no-relax"),
    ])
    def test_bad_fmax_exit_2(self, runner, tmp_path, fmax, flag):
        s = tmp_path / "dimer.xyz"
        write_xyz(dimer(r=3.8), s)
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        result = runner.invoke(main, [
            "--out-dir", str(tmp_path / "out"), "modes", "--structure",
            str(s), "--lj-params", str(lj), flag, "--fmax", fmax,
        ])
        assert result.exit_code == 2, result.output
        assert "fmax" in result.output

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_cell_exit_2(self, runner, tmp_path, bad):
        s = tmp_path / "d.xyz"
        s.write_text(f'2\nLattice="{bad} 0 0 0 10 0 0 0 10"\n'
                     "Ar 0.0 0.0 0.0\nAr 3.8 0.0 0.0\n")
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "modes", "--structure", str(s),
            "--lj-params", str(lj),
        ])
        assert result.exit_code == 2, result.output
        assert "non-finite cell" in result.output
        assert not list(out.iterdir())


_BAD_NUMBERS = ("nan", "inf", "-inf", "1e400", "x", "")


@st.composite
def xyz_texts(draw):
    """XYZ text of 1-4 atoms, of which a drawn few parts are malformed."""
    n = draw(st.integers(1, 4))
    rows = [[draw(st.sampled_from(["Ar", "C"]))]
            + [f"{draw(st.floats(-6.0, 6.0)):.3f}" for _ in range(3)]
            for _ in range(n)]
    for i, j, bad in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, 3),
            st.sampled_from(_BAD_NUMBERS + ("Xx", "0"))), max_size=2)):
        rows[i][j] = bad
    count = draw(st.one_of(st.just(str(n)),
                           st.sampled_from(["", "x", "-1", "0", "9"])))
    comment = draw(st.sampled_from([
        "", 'Lattice="9 0 0 0 9 0 0 0 9"', 'Lattice="9 0 0 3 9 0 -4 0 8"',
        'Lattice="1 2 3"', 'Lattice="0 0 0 0 0 0 0 0 0"',
        'Lattice="9 0 0 0 nan 0 0 0 9"']))
    lines = [count, comment] + [" ".join(r) for r in rows]
    return "\n".join(lines) + "\n"


_LJ_TEXTS = st.sampled_from([
    '{"Ar,Ar": [0.0104, 3.4], "C,C": [0.003, 3.4], "Ar,C": [0.0056, 3.4]}',
    '{"Ar,Ar": [0.0104, 3.4]}', '{"Ar,Ar": [NaN, 3.4]}',
    '{"Ar,Ar": [0.0104, Infinity]}', '{"Ar,Ar": [0.0104]}', "[]", "{",
    '{"Ar": [0.0104, 3.4]}', "",
])


class TestModesFuzz:
    @settings(max_examples=40, deadline=None)
    @given(xyz_texts(), _LJ_TEXTS,
           st.sampled_from(["0.01", "nan", "inf", "-inf", "0", "-1"]),
           st.booleans())
    def test_modes_exit_codes(self, xyz, lj, fmax, do_relax):
        """modes exits 0, 2 or 3 on any structure, parameters and fmax."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("s.xyz", "lj.json")]
            for path, text in zip(paths, (xyz, lj)):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            argv = ["--out-dir", os.path.join(tmp, "out"), "modes",
                    "--structure", paths[0], "--lj-params", paths[1],
                    "--fmax", fmax, "--relax" if do_relax else "--no-relax"]
            assert _exit_code(argv) in (0, 2, 3), argv


_SMILES_POOL = ("c1ccccc1", "CCO", "C1CCCCC1", "c1ccsc1", "CC(C)=O",
                "c1ccc2ccccc2c1", "CCCCC", "C=CC=C", "C1CC", "c1cccc1", "C(",
                "Xx", "", "[Na+].[Cl-]")


@st.composite
def smiles_tables(draw):
    """A SMILES table of 0-7 rows; the header and rows malformed in drawn
    ways."""
    header = draw(st.sampled_from(["id\tsmiles", "id,smiles", "smiles", ""]))
    rows = []
    for k in range(draw(st.integers(0, 7))):
        smiles = draw(st.sampled_from(_SMILES_POOL))
        rows.append(draw(st.sampled_from([
            f"m{k}\t{smiles}", f"m{k}\t{smiles}", smiles,
            f"m{k}\t{smiles}\textra", f"m{k % 2}\t{smiles}"])))
    return "\n".join([header] + rows) + "\n"


def _lattice_text(n_side):
    """XYZ text of an n_side**3 Ar lattice, spacing 3 A, periodic cell."""
    host = lj_lattice(n_side)
    edge = 3.0 * n_side
    lines = [str(len(host)),
             f'Lattice="{edge} 0 0 0 {edge} 0 0 0 {edge}"']
    lines += [f"Ar {x:.3f} {y:.3f} {z:.3f}" for x, y, z in host.positions]
    return "\n".join(lines) + "\n"


class TestMapEmbedFuzz:
    @settings(max_examples=30, deadline=None)
    @given(smiles_tables(),
           st.sampled_from(["2", "nan", "inf", "0", "-1", "1e300"]),
           st.sampled_from(["2", "5"]))
    def test_map_exit_codes(self, table, perplexity, min_cluster_size):
        """map exits 0, 2 or 3 on any table, perplexity and cluster size."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.tsv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(table)
            _assert_exit_contract(tmp, [
                "map", "--smiles", path, "--perplexity", perplexity,
                "--min-cluster-size", min_cluster_size])

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(xyz_texts(), st.just(_lattice_text(3))), xyz_texts(),
           st.one_of(st.none(), _LJ_TEXTS),
           st.sampled_from(["2.0", "0", "-1", "nan", "inf", "x"]),
           st.sampled_from(["1", "2", "0", "-1", "x"]),
           st.sampled_from(["40", "0", "-1", "nan", "x"]))
    def test_embed_exit_codes(self, host, emitter, lj, cutoff, per_count,
                              max_trials):
        """embed exits 0, 2 or 3 on any host, emitter, parameters and
        options."""
        with tempfile.TemporaryDirectory() as tmp:
            # one removed count keeps the relaxations with --lj-params few
            argv = ["embed", "--min-removed", "2", "--max-removed", "2",
                    "--cutoff", cutoff, "--per-count", per_count,
                    "--max-trials", max_trials]
            for flag, name, text in (("--host", "host.xyz", host),
                                     ("--emitter", "emitter.xyz", emitter),
                                     ("--lj-params", "lj.json", lj)):
                if text is None:
                    continue
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                argv += [flag, path]
            _assert_exit_contract(tmp, argv)


class TestNonFiniteArtifacts:
    def test_embed_nan_binding_energy_exits_3(self, runner, tmp_path):
        host = tmp_path / "host.xyz"
        emitter = tmp_path / "emitter.xyz"
        write_xyz(lj_lattice(3), host)
        write_xyz(dimer(r=1.2), emitter)
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))

        def nan_energies(trials, *args, **kwargs):
            return None, None, [float("nan")] * len(trials)

        out = tmp_path / "out"
        with mock.patch.object(cli, "select_most_stable", nan_energies):
            result = runner.invoke(main, [
                "--out-dir", str(out), "--seed", "7", "embed",
                "--host", str(host), "--emitter", str(emitter),
                "--cutoff", "2.0", "--per-count", "1", "--max-trials", "400",
                "--lj-params", str(lj),
            ])
        assert result.exit_code == 3, result.output
        assert "embedding.json" in result.output
        assert not list(out.iterdir())

    def test_modes_nan_mode_exits_3(self, runner, tmp_path):
        s = tmp_path / "d.xyz"
        write_xyz(dimer(), s)
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))

        def nan_modes(*args):
            modeset = normal_modes(*args)
            modeset.modes[0, 0] = np.nan
            return modeset

        out = tmp_path / "out"
        with mock.patch.object(cli, "normal_modes", nan_modes):
            result = runner.invoke(main, [
                "--out-dir", str(out), "modes", "--structure", str(s),
                "--lj-params", str(lj),
            ])
        assert result.exit_code == 3, result.output
        assert "modes.json" in result.output
        assert not list(out.iterdir())

    @pytest.mark.filterwarnings("error")
    def test_modes_coincident_atoms_no_numpy_warning(self, runner, tmp_path):
        """The same exit 3 when every warning is an error: the LJ
        divisions by r = 0 print no RuntimeWarning."""
        self.test_modes_coincident_atoms_exit_3(runner, tmp_path)

    def test_modes_coincident_atoms_exit_3(self, runner, tmp_path):
        """Two atoms one lattice vector apart whose wrapped positions differ
        in the last bit (0.1 * (1/3) against 3.1 * (1/3) - 1) pass the file
        check; the minimum image puts them at r = 0 and the Hessian is NaN:
        exit 3, nothing written."""
        s = tmp_path / "d.xyz"
        s.write_text('2\nLattice="3.0 0.0 0.0 0.0 3.0 0.0 0.0 0.0 3.0"\n'
                     "Ar 0.1 0.0 0.0\nAr 3.1 0.0 0.0\n")
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "modes", "--structure", str(s),
            "--lj-params", str(lj),
        ])
        assert result.exit_code == 3, result.output
        assert "non-finite" in result.output
        assert not list(out.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("relax", [[], ["--relax"]])
    def test_modes_coincident_atoms_exit_2(self, runner, tmp_path, relax):
        """Two atoms at one Cartesian position are refused before any
        kernel runs, with or without --relax: exit 2 naming the pair,
        nothing written."""
        s = tmp_path / "t.xyz"
        s.write_text("3\n\nAr 0.0 0.0 0.0\nAr 3.8 0.0 0.0\nAr -0.0 0 0\n")
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        out = tmp_path / "out"
        with mock.patch.object(LennardJonesPotential, "hessian") as hessian, \
                mock.patch.object(cli, "relax_structure") as relax_structure:
            result = runner.invoke(main, [
                "--out-dir", str(out), "modes", "--structure", str(s),
                "--lj-params", str(lj), *relax,
            ])
        assert result.exit_code == 2, result.output
        assert "atoms 0 and 2 are at the same position" in result.output
        assert not (hessian.called or relax_structure.called)
        assert not list(out.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("relax", [[], ["--relax"]])
    def test_modes_lattice_vector_pair_exit_2(self, runner, tmp_path, relax):
        """Two atoms at x = 0 and x = 4 in a 4 A cubic cell share one wrapped
        position: refused before any kernel runs, with or without --relax
        (once exit 3 without and exit 2 with), naming the pair."""
        s = tmp_path / "d.xyz"
        s.write_text('2\nLattice="4.0 0.0 0.0 0.0 4.0 0.0 0.0 0.0 4.0"\n'
                     "Ar 0.0 0.0 0.0\nAr 4.0 0.0 0.0\n")
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        out = tmp_path / "out"
        with mock.patch.object(LennardJonesPotential, "hessian") as hessian, \
                mock.patch.object(cli, "relax_structure") as relax_structure:
            result = runner.invoke(main, [
                "--out-dir", str(out), "modes", "--structure", str(s),
                "--lj-params", str(lj), *relax,
            ])
        assert result.exit_code == 2, result.output
        assert "atoms 0 and 1 are at the same position" in result.output
        assert not (hessian.called or relax_structure.called)
        assert not list(out.iterdir())

    @pytest.mark.parametrize("relax", [[], ["--relax"]])
    def test_modes_slab_exit_2(self, runner, tmp_path, relax):
        """An XYZ file with an open axis is refused: exit 2, nothing
        written."""
        s = tmp_path / "slab.xyz"
        s.write_text('2\nLattice="10 0 0 0 10 0 0 0 10" pbc="T F T"\n'
                     "Ar 0 0.5 0\nAr 0 9.5 0\n")
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "modes", "--structure", str(s),
            "--lj-params", str(lj), *relax,
        ])
        assert result.exit_code == 2, result.output
        assert "slab.xyz" in result.output and "open axis" in result.output
        assert not list(out.iterdir())


class TestVibronic:
    @staticmethod
    def _inputs(tmp_path):
        """Flags for a 2-atom emitter in a 4-atom complex, minus the atoms."""
        rng = np.random.default_rng(2)

        def rand_modes(masses):
            n3 = 3 * len(masses)
            a = rng.normal(size=(n3, n3))
            return normal_modes(a @ a.T, masses)

        iso = rand_modes(np.array([12.011, 12.011]))
        emb = rand_modes(np.array([39.948, 39.948, 12.011, 12.011]))
        save_mode_set(iso, tmp_path / "iso.json")
        save_mode_set(emb, tmp_path / "emb.json")
        (tmp_path / "forces.json").write_text(
            json.dumps(rng.normal(size=(2, 3)).tolist())
        )
        from spescreen.structure import AtomicStructure
        g = AtomicStructure(elements=["C", "C"],
                            positions=[[0, 0, 0], [1.4, 0, 0]])
        x = AtomicStructure(elements=["C", "C"],
                            positions=[[0, 0, 0.02], [1.45, 0, 0]])
        write_xyz(g, tmp_path / "rg.xyz")
        write_xyz(x, tmp_path / "rx.xyz")
        return [
            "vibronic",
            "--isolated", str(tmp_path / "iso.json"),
            "--embedded", str(tmp_path / "emb.json"),
            "--forces", str(tmp_path / "forces.json"),
            "--r-ground", str(tmp_path / "rg.xyz"),
            "--r-excited", str(tmp_path / "rx.xyz"),
        ]

    def test_report_json(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out-dir", str(out)]
                               + self._inputs(tmp_path)
                               + ["--emitter-atoms", "2:4"])
        assert result.exit_code == 0, result.output
        data = json.loads((out / "vibronic.json").read_text())
        assert set(data) == {
            "g", "s_projection", "huang_rhys", "weighted_huang_rhys",
            "svc", "sum_g", "sum_weighted_hr", "direct_fc",
        }

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "1e400"])
    def test_non_finite_forces_exit_2(self, runner, tmp_path, bad):
        argv = self._inputs(tmp_path)
        (tmp_path / "forces.json").write_text(
            f"[[{bad}, 0.0, 0.1], [0.0, 0.2, 0.0]]")
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out-dir", str(out)] + argv
                               + ["--emitter-atoms", "2:4"])
        assert result.exit_code == 2, result.output
        assert "forces must be finite" in result.output
        assert not list(out.iterdir())

    def test_external_convention_converted(self, runner, tmp_path):
        """An isolated set exported to the inverse-mass-normalized
        convention gives the report of the internal file."""
        argv = self._inputs(tmp_path) + ["--emitter-atoms", "2:4"]
        internal = tmp_path / "internal"
        result = runner.invoke(main, ["--out-dir", str(internal)] + argv)
        assert result.exit_code == 0, result.output
        iso = tmp_path / "iso.json"
        data = json.loads(iso.read_text())
        sqrt_m = np.repeat(np.sqrt(data["masses_amu"]), 3)
        data["modes"] = (np.array(data["modes"]) / sqrt_m).tolist()
        data["convention"] = "inverse-mass-normalized"
        iso.write_text(json.dumps(data))
        external = tmp_path / "external"
        result = runner.invoke(main, ["--out-dir", str(external)] + argv)
        assert result.exit_code == 0, result.output
        want = json.loads((internal / "vibronic.json").read_text())
        got = json.loads((external / "vibronic.json").read_text())
        assert set(got) == set(want)
        for key in want:
            assert np.allclose(got[key], want[key], rtol=1e-12, atol=0), key

    @pytest.mark.parametrize("row", [0.0, 1e308], ids=["zero", "overflow"])
    def test_unnormalisable_external_row_exit_2(self, tmp_path, row):
        """An exported mode row that is zero, or overflows when scaled by
        sqrt(M), exits 2 naming the row, and numpy warns nothing."""
        argv = self._inputs(tmp_path) + ["--emitter-atoms", "2:4"]
        iso = tmp_path / "iso.json"
        data = json.loads(iso.read_text())
        data["modes"][3] = [row] * 6
        data["convention"] = "inverse-mass-normalized"
        iso.write_text(json.dumps(data))
        code, _, proc = _cli_in_subprocess(["--out-dir", "out"] + argv,
                                           tmp_path)
        assert code == 2, proc.stderr
        assert "mode row 3 cannot be normalised" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not list((tmp_path / "out").iterdir())

    def test_atoms_outside_complex_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["--out-dir", str(tmp_path / "out")]
                               + self._inputs(tmp_path)
                               + ["--emitter-atoms", "3:5"])
        assert result.exit_code == 2, result.output
        assert "outside [0, 4)" in result.output

    @pytest.mark.parametrize("spec", [
        "3:5", "4", "-1,0", "-1:2", "0,0", "1,2,1", "2:2", ",", "",
        "a", "0:x", "1.5", "0:1:2", "0:1000000000000",
    ])
    def test_bad_atom_selection(self, spec):
        with pytest.raises(ValueError):
            _parse_atom_selection(spec, 4)

    @pytest.mark.parametrize("spec, atoms", [
        (None, [0, 1, 2, 3]), ("2:4", [2, 3]), (":2", [0, 1]),
        ("1:", [1, 2, 3]), ("3, 0", [3, 0]),
    ])
    def test_atom_selection(self, spec, atoms):
        assert _parse_atom_selection(spec, 4) == atoms


class TestSpinStark:
    def test_spin(self, runner, tmp_path):
        states = tmp_path / "states.json"
        states.write_text(json.dumps({
            "singlets": [{"energy_eV": 2.2, "fosc": 0.3}],
            "triplets": [{"energy_eV": 1.5, "soc_s1_cm1": 0.2},
                         {"energy_eV": 2.5, "soc_s1_cm1": 0.4}],
            "gs_soc_t1_cm1": 0.1,
        }))
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "spin", "--states", str(states),
        ])
        assert result.exit_code == 0, result.output
        data = json.loads((out / "spin.json").read_text())
        assert data["soc"] == pytest.approx(0.2)
        assert data["rsoc"] == pytest.approx(0.4)

    def test_stark(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "stark",
            "--delta-mu", "0.0616", "--delta-alpha", "612.15",
            "--field", "1.0",
        ])
        assert result.exit_code == 0, result.output
        data = json.loads((out / "stark.json").read_text())
        assert data["a_mhz_per_kvcm"] == pytest.approx(78.84, rel=0.01)
        assert data["b_mhz_per_kvcm2"] == pytest.approx(-0.0761, rel=0.01)

    @pytest.mark.parametrize("argv", [
        ["--delta-mu", "nan", "--delta-alpha", "1"],
        ["--delta-mu", "0.05", "--delta-alpha", "inf"],
        ["--delta-mu", "0.05", "--delta-alpha", "-inf"],
        ["--delta-mu", "0.05", "--delta-alpha", "600", "--field", "nan"],
        ["--delta-mu", "0.05", "--delta-alpha", "600", "--field", "1e400"],
    ])
    def test_stark_non_finite_exit_2(self, runner, tmp_path, argv):
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out-dir", str(out), "stark"] + argv)
        assert result.exit_code == 2, result.output
        assert "finite" in result.output
        assert not list(out.iterdir())

    @pytest.mark.parametrize("states", [
        {"singlets": [{"energy_eV": float("nan")}], "triplets": []},
        {"singlets": [{"energy_eV": 2.0}],
         "triplets": [{"energy_eV": 1.5, "soc_s1_cm1": float("inf")}]},
        {"singlets": [{"energy_eV": 2.0}], "triplets": [],
         "gs_soc_t1_cm1": float("nan")},
    ])
    def test_spin_non_finite_exit_2(self, runner, tmp_path, states):
        path = tmp_path / "states.json"
        path.write_text(json.dumps(states))
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out-dir", str(out), "spin",
                                      "--states", str(path)])
        assert result.exit_code == 2, result.output
        assert "finite" in result.output
        assert not list(out.iterdir())


class TestLabelClassifyReport:
    def test_label(self, runner, tmp_path, records_csv):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "label", "--records", str(records_csv),
            "--lambda-host", "500",
        ])
        assert result.exit_code == 0, result.output
        lines = (out / "labels.csv").read_text().splitlines()
        assert lines[0] == "id,label"
        assert len(lines) == 31

    def test_classify(self, runner, tmp_path, records_csv):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "classify",
            "--records", str(records_csv), "--lambda-host", "500",
        ])
        assert result.exit_code == 0, result.output
        lines = (out / "labels.csv").read_text().splitlines()
        assert lines[0] == "id,label,probability"
        probs = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(0.0 < p < 1.0 for p in probs)

    def test_report(self, runner, tmp_path, records_csv):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--out-dir", str(out), "report",
            "--records", str(records_csv), "--lambda-host", "500",
        ])
        assert result.exit_code == 0, result.output
        assert (out / "table1.csv").exists()
        # dual-writer consistency: CSV and JSON agree field by field
        csv_lines = (out / "table1.csv").read_text().splitlines()
        table = json.loads((out / "table1.json").read_text())
        assert len(csv_lines) - 1 == len(table)
        header = csv_lines[0].split(",")
        first = dict(zip(header, csv_lines[1].split(",")))
        assert first["id"] == table[0]["id"]
        assert float(first["svc"]) == pytest.approx(table[0]["svc"],
                                                    abs=1e-4)
        assert (out / "fig3_svc.csv").exists()
        assert (out / "fig4_pca.csv").exists()

    def test_gpc_counters_in_manifests(self, runner, tmp_path, records_csv):
        counters = {"log_marginal_likelihood", "grad_norm", "n_evaluations",
                    "search_newton_steps", "optimizer_converged",
                    "sigma2_at_bound", "lengthscale_at_bound",
                    "laplace_iterations", "laplace_converged"}
        for stage in ("classify", "report"):
            out = tmp_path / stage
            result = runner.invoke(main, [
                "--out-dir", str(out), stage,
                "--records", str(records_csv), "--lambda-host", "500",
            ])
            assert result.exit_code == 0, result.output
            params = json.loads(
                (out / f"{stage}_manifest.json").read_text())["parameters"]
            assert counters | {"sigma2", "lengthscale"} <= set(params)
            assert params["n_evaluations"] >= 1
            # every evaluation takes at least one Newton step
            assert params["search_newton_steps"] >= params["n_evaluations"]
            assert params["optimizer_converged"] is True
            assert params["laplace_iterations"] >= 1
            assert params["laplace_converged"] is True
            # the 2-D PCA fit of this table runs to the lengthscale upper
            # bound (100), as the grid + Nelder-Mead fit did
            assert params["sigma2_at_bound"] is False
            assert params["lengthscale_at_bound"] is (stage == "report")
            assert (params["lengthscale"] == 100.0) is (stage == "report")
        out = tmp_path / "no_grid"
        result = runner.invoke(main, [
            "--out-dir", str(out), "report", "--records", str(records_csv),
        ])
        assert result.exit_code == 0, result.output
        params = json.loads(
            (out / "report_manifest.json").read_text())["parameters"]
        assert not counters & set(params)

    def test_empty_records_exit_2(self, runner, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text(
            "id,tanimoto,fosc_abs,fosc_em,lambda_abs_nm,lambda_em_nm,"
            "rotary_1e40cgs,soc,rsoc,gssoc,svc,e_bind_eV\n"
        )
        result = runner.invoke(main, [
            "--out-dir", str(tmp_path), "report", "--records", str(p),
        ])
        assert result.exit_code == 2


class TestGPCThreads:
    def test_gpc_artifacts_across_blas_threads(self, tmp_path):
        """classify and report under one and two OpenBLAS threads.

        The CSVs are byte-identical. The manifests differ only in the last
        digits of the fitted floats: threaded matrix-vector products sum in
        another order.
        """
        records = tmp_path / "records.csv"
        write_candidates_csv(bench_seed3_records(), records)
        src = os.path.dirname(os.path.dirname(spescreen.__file__))
        runs = {}
        for threads in ("1", "2"):
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [
                       src, os.environ.get("PYTHONPATH")]))}
            for stage in ("classify", "report"):
                subprocess.run(
                    [sys.executable, "-c",
                     "import sys; from spescreen.cli import main; "
                     "main(sys.argv[1:])",
                     "--out-dir", "out", stage, "--records", str(records),
                     "--lambda-host", "550"],
                    cwd=cwd, env=env, check=True, capture_output=True)
            runs[threads] = cwd / "out"
        one, two = runs["1"], runs["2"]
        for name in ("labels.csv", "fig4_grid.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes()
        for name in ("classify_manifest.json", "report_manifest.json"):
            a = json.loads((one / name).read_text())
            b = json.loads((two / name).read_text())
            pa, pb = a.pop("parameters"), b.pop("parameters")
            assert a == b
            assert pa.keys() == pb.keys()
            for key in pa:
                if key in ("sigma2", "lengthscale"):
                    assert pa[key] == pytest.approx(pb[key], rel=1e-7), key
                elif key == "log_marginal_likelihood":
                    assert pa[key] == pytest.approx(pb[key], rel=1e-11)
                elif key == "grad_norm":       # rounding noise at the mode
                    assert max(pa[key], pb[key]) < 1e-8
                else:
                    assert pa[key] == pb[key], key
            assert pa["sigma2_at_bound"] is False


_SUBPROCESS_MAIN = """\
import sys
from spescreen.cli import main
try:
    main(sys.argv[1:], standalone_mode=False)
    code = 0
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _cli_in_subprocess(argv, cwd):
    """One CLI call in a fresh interpreter: (exit code, the scipy modules
    it loaded, the completed process)."""
    src = os.path.dirname(os.path.dirname(spescreen.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _SUBPROCESS_MAIN, *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules), proc


class TestColdStart:
    """A stage run in a fresh interpreter loads only the scipy it uses."""

    @staticmethod
    def _argv(stage, tmp_path, smiles_table, records_csv):
        write_xyz(dimer(r=3.8), tmp_path / "dimer.xyz")
        (tmp_path / "lj.json").write_text(
            json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        (tmp_path / "states.json").write_text(json.dumps({
            "singlets": [{"energy_eV": 2.2, "fosc": 0.3}],
            "triplets": [{"energy_eV": 1.5, "soc_s1_cm1": 0.2}],
        }))
        return {
            "similarity": ["similarity", "--smiles", str(smiles_table),
                           "--reference", "ref"],
            "map": ["--seed", "4", "map", "--smiles", str(smiles_table),
                    "--perplexity", "3"],
            "modes": ["modes", "--structure", str(tmp_path / "dimer.xyz"),
                      "--lj-params", str(tmp_path / "lj.json"), "--relax"],
            "vibronic": (TestVibronic._inputs(tmp_path)
                         + ["--emitter-atoms", "2:4"]),
            "spin": ["spin", "--states", str(tmp_path / "states.json")],
            "stark": ["stark", "--delta-mu", "0.0616", "--delta-alpha",
                      "612.15", "--field", "1.0"],
            "label": ["label", "--records", str(records_csv),
                      "--lambda-host", "500"],
        }[stage]

    @pytest.mark.parametrize("stage, banned", [
        ("similarity", "scipy"), ("modes", "scipy"), ("vibronic", "scipy"),
        ("spin", "scipy"), ("stark", "scipy"), ("label", "scipy"),
        ("map", "scipy.spatial"),
    ])
    def test_stage_leaves_out_scipy(self, tmp_path, smiles_table,
                                    records_csv, stage, banned):
        argv = self._argv(stage, tmp_path, smiles_table, records_csv)
        code, modules, proc = _cli_in_subprocess(["--out-dir", "out"] + argv,
                                                 tmp_path)
        assert code == 0, proc.stderr
        assert not {m for m in modules
                    if m == banned or m.startswith(banned + ".")}


def _exit_code(argv):
    """Exit code of one in-process CLI call; other exceptions propagate.

    A click usage error (a bad option value) carries the code that the
    standalone command exits with.
    """
    try:
        main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code
    except click.ClickException as exc:
        return exc.exit_code
    return 0


_BAD_CELLS = ("nan", "inf", "-inf", "x", "", "1e400")


@st.composite
def record_tables(draw):
    """Header and rows of a candidate table, malformed in drawn ways."""
    columns = list(CANDIDATE_COLUMNS)
    shape = draw(st.sampled_from(["plain", "missing", "extra"]))
    if shape == "missing":
        columns.remove(draw(st.sampled_from(CANDIDATE_COLUMNS)))
    elif shape == "extra":
        columns.append("extra")
    n = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [[f"c{k}"] + [f"{v:.6g}" for v in rng.uniform(0, 900,
                                                         len(columns) - 1)]
            for k in range(n)]
    if n:
        cells = st.tuples(st.integers(0, n - 1), st.integers(1, len(columns) - 1),
                          st.sampled_from(_BAD_CELLS))
        for i, j, value in draw(st.lists(cells, max_size=3)):
            rows[i][j] = value
        for j in draw(st.lists(st.integers(1, len(columns) - 1),
                               max_size=2)):
            for row in rows:
                row[j] = "1.5"           # zero-variance column
        if draw(st.booleans()):
            rows[-1] = rows[-1][:-1] if draw(st.booleans()) \
                else rows[-1] + ["9"]   # short or long row
    return columns, rows


class TestRecordTableFuzz:
    @settings(max_examples=40, deadline=None)
    @given(record_tables())
    def test_record_stages_exit_codes(self, table):
        """label, classify and report exit 0, 2 or 3 on any table."""
        columns, rows = table
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(columns)
                writer.writerows(rows)
            out = ["--out-dir", os.path.join(tmp, "out")]
            records = ["--records", path]
            host = ["--lambda-host", "450"]
            for argv in (["label"] + records + host,
                         ["classify"] + records + host,
                         ["report"] + records,
                         ["report"] + records + host):
                assert _exit_code(out + argv) in (0, 2, 3), argv


def _assert_exit_contract(tmp, argv):
    """One CLI call in `tmp` exits 0, 2 (click usage errors too) or 3.

    On exit 0 every JSON artifact must parse as strict JSON, with no NaN or
    Infinity token in it.
    """
    out = os.path.join(tmp, "out")
    result = CliRunner().invoke(main, ["--out-dir", out] + argv)
    assert result.exit_code in (0, 2, 3), (argv, result.output,
                                           result.exception)
    if result.exit_code == 0:
        def refuse(token):
            raise AssertionError(f"non-JSON constant {token} in {argv}")

        for name in os.listdir(out):
            if name.endswith(".json"):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    json.loads(fh.read(), parse_constant=refuse)


_NUMBER_ARGS = ("0.0616", "612.15", "-3", "0", "1e300", "nan", "inf", "-inf",
                "1e400", "x", "")
_JSON_VALUES = ("0", "-1", "1e300", "1e400", "NaN", "Infinity", "-Infinity",
                '"x"', "null", "[]", "true")
_JSON_NUMBERS = st.one_of(st.floats(0.1, 3.0).map("{:.3f}".format),
                          st.sampled_from(_JSON_VALUES))


@st.composite
def state_tables(draw):
    """Excited-state table JSON text, malformed in drawn ways."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([
            "", "{", "[]", "null", '{"singlets": 5}',
            '{"singlets": [{"bogus": 1}]}', '{"singlets": [[2.0]]}']))

    def state(keys):
        chosen = keys[:1] + [k for k in keys[1:] if draw(st.booleans())]
        return "{" + ", ".join(f'"{k}": {draw(_JSON_NUMBERS)}'
                               for k in chosen) + "}"

    singlets = [state(["energy_eV", "fosc", "rotary_1e40cgs", "lambda_nm"])
                for _ in range(draw(st.integers(0, 2)))]
    triplets = [state(["energy_eV", "soc_s1_cm1"])
                for _ in range(draw(st.integers(0, 3)))]
    parts = [f'"singlets": [{", ".join(singlets)}]',
             f'"triplets": [{", ".join(triplets)}]']
    if draw(st.booleans()):
        parts.append(f'"gs_soc_t1_cm1": {draw(_JSON_NUMBERS)}')
    return "{" + ", ".join(parts) + "}"


@st.composite
def force_texts(draw):
    """A JSON array of force rows: wrong shapes and bad numbers drawn in."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "{", "[]", '"x"', "1e400",
                                     '{"forces": []}']))
    rows = [[f"{draw(st.floats(-1.0, 1.0)):.4f}" for _ in range(3)]
            for _ in range(draw(st.sampled_from([2, 2, 2, 1, 3])))]
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 2))] \
            = draw(st.sampled_from(_JSON_VALUES))
    if draw(st.integers(0, 4)) == 0:
        rows[-1] = rows[-1][:2]                     # ragged
    return "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]"


class TestSpinStarkVibronicFuzz:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.floats(0.0, 0.1).map("{:.4f}".format),
                     st.none(), st.sampled_from(_NUMBER_ARGS)),
           st.one_of(st.floats(-700.0, 700.0).map("{:.2f}".format),
                     st.none(), st.sampled_from(_NUMBER_ARGS)),
           st.lists(st.one_of(st.floats(-50.0, 50.0).map("{:.3f}".format),
                              st.sampled_from(_NUMBER_ARGS)), max_size=3))
    @example("nan", "1", [])
    @example("0.05", "inf", [])
    @example("0.05", "1", ["nan"])
    def test_stark_exit_codes(self, delta_mu, delta_alpha, fields):
        """stark exits 0, 2 or 3 on any coefficients and fields."""
        argv = ["stark"]
        for flag, value in (("--delta-mu", delta_mu),
                            ("--delta-alpha", delta_alpha)):
            if value is not None:
                argv += [flag, value]
        for f in fields:
            argv += ["--field", f]
        with tempfile.TemporaryDirectory() as tmp:
            _assert_exit_contract(tmp, argv)

    @settings(max_examples=40, deadline=None)
    @given(state_tables())
    @example('{"singlets": [{"energy_eV": NaN}], "triplets": []}')
    def test_spin_exit_codes(self, text):
        """spin exits 0, 2 or 3 on any excited-state table."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "states.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            _assert_exit_contract(tmp, ["spin", "--states", path])

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([None, "forces", "modes", "geometry", "atoms"]),
           force_texts(),
           st.sampled_from(["nan-frequency", "inf-mode", "zero-mass",
                            "zero-mode", "truncated", "wrong-shape"]),
           st.sampled_from(["mass-weighted-orthonormal",
                            "inverse-mass-normalized",
                            "mass-weighted-then-normalized", "bogus"]),
           xyz_texts(), st.sampled_from(["0:2", "2,3", "3:5", "x", None]))
    @example("forces", "[[NaN, 0, 0], [0, 0, 0]]", "truncated",
             "mass-weighted-orthonormal", "", None)
    def test_vibronic_exit_codes(self, fault, forces, modes_fault,
                                 convention, xyz, atoms):
        """vibronic exits 0, 2 or 3 on any forces, mode sets (in any
        convention tag), geometry and atom selection; one input at a time
        is drawn malformed."""
        with tempfile.TemporaryDirectory() as tmp:
            argv = TestVibronic._inputs(Path(tmp))
            argv += ["--emitter-atoms", "2:4"]
            if fault == "forces":
                with open(os.path.join(tmp, "forces.json"), "w",
                          encoding="utf-8") as fh:
                    fh.write(forces)
            elif fault == "modes":
                iso = os.path.join(tmp, "iso.json")
                with open(iso, encoding="utf-8") as fh:
                    text = fh.read()
                data = json.loads(text)
                data["convention"] = convention
                if modes_fault == "nan-frequency":
                    data["frequencies_cm1"][2] = float("nan")
                elif modes_fault == "inf-mode":
                    data["modes"][1][1] = float("inf")
                elif modes_fault == "zero-mass":
                    data["masses_amu"][0] = 0.0
                elif modes_fault == "zero-mode":
                    data["modes"][1] = [0.0] * len(data["modes"][1])
                elif modes_fault == "wrong-shape":
                    data["modes"] = data["modes"][:-1]
                with open(iso, "w", encoding="utf-8") as fh:
                    fh.write(text[:40] if modes_fault == "truncated"
                             else json.dumps(data))
            elif fault == "geometry":
                with open(os.path.join(tmp, "rg.xyz"), "w",
                          encoding="utf-8") as fh:
                    fh.write(xyz)
            elif fault == "atoms":
                argv = argv[:-2] + ([] if atoms is None
                                    else ["--emitter-atoms", atoms])
            _assert_exit_contract(tmp, argv)


def _stage_argv(stage, tmp_path, smiles_table, records_csv):
    """Arguments for one successful call of `stage`; inputs in tmp_path."""
    lj = tmp_path / "lj.json"
    lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
    if stage == "embed":
        write_xyz(lj_lattice(3, spacing=3.8), tmp_path / "host.xyz")
        write_xyz(dimer(r=1.2), tmp_path / "emitter.xyz")
        return ["--host", str(tmp_path / "host.xyz"),
                "--emitter", str(tmp_path / "emitter.xyz"), "--cutoff", "2.0",
                "--min-removed", "2", "--max-removed", "3", "--per-count", "1",
                "--max-trials", "4000"]
    if stage == "modes":
        write_xyz(dimer(r=3.8), tmp_path / "dimer.xyz")
        return ["--structure", str(tmp_path / "dimer.xyz"),
                "--lj-params", str(lj), "--relax"]
    if stage == "vibronic":
        return TestVibronic._inputs(tmp_path)[1:] + ["--emitter-atoms", "2:4"]
    if stage == "spin":
        states = tmp_path / "states.json"
        states.write_text(json.dumps({
            "singlets": [{"energy_eV": 2.2, "fosc": 0.3}],
            "triplets": [{"energy_eV": 1.5, "soc_s1_cm1": 0.2}],
        }))
        return ["--states", str(states)]
    if stage == "report":
        (tmp_path / "vib").mkdir()
        return ["--records", str(records_csv), "--lambda-host", "500",
                "--vibronic-dir", str(tmp_path / "vib")]
    return {
        "similarity": ["--smiles", str(smiles_table), "--reference", "ref"],
        "map": ["--smiles", str(smiles_table), "--perplexity", "3",
                "--min-cluster-size", "3"],
        "stark": ["--delta-mu", "0.0616", "--delta-alpha", "612.15",
                  "--field", "1.0"],
        "label": ["--records", str(records_csv), "--lambda-host", "500"],
        "classify": ["--records", str(records_csv), "--lambda-host", "500"],
    }[stage]


_STAGES = ("similarity", "map", "embed", "modes", "vibronic", "spin", "stark",
           "label", "classify", "report")


class TestStageManifest:
    def test_every_stage_listed(self):
        assert set(_STAGES) == set(main.commands)

    @pytest.mark.parametrize("stage", _STAGES)
    def test_outputs_are_the_files_written(self, runner, tmp_path, stage,
                                           smiles_table, records_csv):
        """The manifest lists exactly the files the stage wrote into its
        out-dir, sorted, the manifest itself left out."""
        argv = _stage_argv(stage, tmp_path, smiles_table, records_csv)
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out-dir", str(out), stage] + argv)
        assert result.exit_code == 0, result.output
        manifest_name = f"{stage}_manifest.json"
        manifest = json.loads((out / manifest_name).read_text())
        written = sorted(str(out / name) for name in os.listdir(out)
                         if name != manifest_name)
        assert written
        assert manifest["outputs"] == written


class TestConfig:
    def test_config_supplies_defaults(self, runner, tmp_path, records_csv):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[global]\nseed = 9\n\n[label]\n"
            f"records = {records_csv}\nlambda_host = 500\n"
        )
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--config", str(cfg), "--out-dir", str(out), "label",
        ])
        assert result.exit_code == 0, result.output
        assert (out / "labels.csv").exists()

    def test_flag_overrides_config(self, runner, tmp_path, records_csv):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            f"[label]\nrecords = {records_csv}\nlambda_host = 10000\n"
        )
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--config", str(cfg), "--out-dir", str(out), "label",
            "--lambda-host", "0",
        ])
        assert result.exit_code == 0, result.output
        # lambda_host = 0 nm admits every wavelength; 10000 nm admits none
        labels = [
            int(line.split(",")[1])
            for line in (out / "labels.csv").read_text().splitlines()[1:]
        ]
        assert any(labels)

    @pytest.mark.parametrize("text", [
        b"[global]\nseed = x\n",
        b"seed = 1\n",
        b"[stark]\ndelta_mu = 0.05\ndelta_mu = 0.06\n",
        b"[stark]\ndelta_mu = \xff\n",
    ], ids=["bad-seed", "no-section-header", "duplicate-key", "not-utf8"])
    def test_malformed_config_exit_2(self, runner, tmp_path, text):
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(text)
        result = runner.invoke(main, [
            "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
            "stark", "--delta-mu", "0.05", "--delta-alpha", "600",
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("text, name", [
        ("[starkk]\nout = x.json\n", "[starkk]"),
        ("delta_muu = 9\n", "delta_muu"),
        ("[global]\nsed = 1\n", "sed"),
        ("[global]\nconfig = other.ini\n", "config"),
        ("[spin]\nstates_file = s.json\n", "states_file"),
    ], ids=["section", "stage-key", "global-key", "global-config",
            "other-stage-key"])
    def test_unknown_config_name_exit_2(self, runner, tmp_path, text, name):
        """A section or key that names nothing exits 2 and names it, even
        next to a valid section for the stage that runs."""
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[stark]\ndelta_alpha = 600\n" + text)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--config", str(cfg), "--out-dir", str(out),
            "stark", "--delta-mu", "0.05",
        ])
        assert result.exit_code == 2, result.output
        assert name in result.output
        assert not out.exists()

    @staticmethod
    def _stage_argv(tmp_path, smiles_table, records_csv):
        """Per stage: global flags and stage flags, each away from its
        default where the stage allows it."""
        host, emitter = tmp_path / "host.xyz", tmp_path / "emitter.xyz"
        write_xyz(lj_lattice(3), host)
        write_xyz(dimer(r=1.2), emitter)
        write_xyz(dimer(r=3.8), tmp_path / "dimer.xyz")
        lj = tmp_path / "lj.json"
        lj.write_text(json.dumps({"Ar,Ar": [0.0104, 3.4]}))
        (tmp_path / "states.json").write_text(json.dumps({
            "singlets": [{"energy_eV": 2.2, "fosc": 0.3}],
            "triplets": [{"energy_eV": 1.5, "soc_s1_cm1": 0.2}],
        }))
        (tmp_path / "vib").mkdir()
        vibronic = TestVibronic._inputs(tmp_path)[1:]
        records = ["--records", str(records_csv), "--lambda-host", "500"]
        return {
            "similarity": ([], ["--smiles", str(smiles_table), "--reference",
                                "ref", "--nbits", "512", "--radius", "3"]),
            "map": (["--seed", "4"], [
                "--smiles", str(smiles_table), "--perplexity", "3",
                "--min-cluster-size", "2", "--nbits", "512", "--radius", "1",
                "--out", "m.csv"]),
            "embed": (["--seed", "7"], [
                "--host", str(host), "--emitter", str(emitter),
                "--cutoff", "2.0", "--min-removed", "2", "--max-removed", "2",
                "--per-count", "1", "--max-trials", "400",
                "--lj-params", str(lj), "--fmax", "0.05"]),
            "modes": ([], ["--structure", str(tmp_path / "dimer.xyz"),
                           "--lj-params", str(lj), "--relax",
                           "--fmax", "0.005", "--out", "m.json"]),
            "vibronic": ([], vibronic + ["--emitter-atoms", "2:4",
                                         "--out", "v.json"]),
            "spin": ([], ["--states", str(tmp_path / "states.json"),
                          "--out", "s.json"]),
            "stark": ([], ["--delta-mu", "0.0616", "--delta-alpha", "612.15",
                           "--out", "st.json"]),
            "label": ([], records + ["--no-soc", "--out", "l.csv"]),
            "classify": ([], records + ["--out", "c.csv"]),
            "report": ([], records + ["--no-soc", "--vibronic-dir",
                                      str(tmp_path / "vib")]),
        }

    @staticmethod
    def _ini(section, argv):
        """`--a-b v` becomes `a_b = v` and a bare `--x` becomes `x = true`."""
        lines = [f"[{section}]"]
        i = 0
        while i < len(argv):
            key = argv[i][2:].replace("-", "_")
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                lines.append(f"{key} = {argv[i + 1]}")
                i += 2
            else:
                lines.append(f"{key} = true")
                i += 1
        return "\n".join(lines) + "\n"

    @staticmethod
    def _artifacts(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("stage", ["similarity", "map", "embed", "modes",
                                       "vibronic", "spin", "stark", "label",
                                       "classify", "report"])
    def test_config_run_matches_flag_run(self, runner, tmp_path,
                                         smiles_table, records_csv, stage):
        """Every flag of a stage set from the INI file writes the same
        bytes, manifest included, as the flags; `--field` stays a flag."""
        global_argv, argv = self._stage_argv(tmp_path, smiles_table,
                                             records_csv)[stage]
        out = tmp_path / "out"
        field = ["--field", "1.5", "--field", "-2"] if stage == "stark" else []
        result = runner.invoke(main, ["--out-dir", str(out)] + global_argv
                               + [stage] + argv + field)
        assert result.exit_code == 0, result.output
        flag_run = self._artifacts(out)
        assert f"{stage}_manifest.json" in flag_run

        cfg = tmp_path / "cfg.ini"
        cfg.write_text(self._ini("global", global_argv)
                       + self._ini(stage, argv))
        for path in out.iterdir():
            path.unlink()
        result = runner.invoke(main, ["--config", str(cfg), "--out-dir",
                                      str(out), stage] + field)
        assert result.exit_code == 0, result.output
        assert self._artifacts(out) == flag_run

    @pytest.mark.parametrize("key", ["records", "vibronic_dir"])
    def test_missing_config_path_exit_2(self, runner, tmp_path, records_csv,
                                        key):
        paths = {"records": records_csv, "vibronic_dir": tmp_path}
        paths[key] = tmp_path / "missing"
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[report]\nrecords = {paths['records']}\n"
                       f"vibronic_dir = {paths['vibronic_dir']}\n")
        result = runner.invoke(main, [
            "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
            "report",
        ])
        assert result.exit_code == 2, result.output
        assert "does not exist" in result.output

    def test_field_is_flag_only(self, runner, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[stark]\ndelta_mu = 0.0616\ndelta_alpha = 612.15\n"
                       "field = 1.0\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "--config", str(cfg), "--out-dir", str(out), "stark",
        ])
        assert result.exit_code == 2, result.output
        assert "--field" in result.output
        assert not list(out.iterdir())

    def test_missing_required_option(self, runner, tmp_path):
        result = runner.invoke(main, [
            "--out-dir", str(tmp_path / "out"), "stark", "--delta-mu", "0.05",
        ])
        assert result.exit_code == 2, result.output
        assert "Missing option '--delta-alpha'" in result.output

    def test_stage_name_in_messages(self, runner, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text("")
        result = runner.invoke(main, [
            "--out-dir", str(tmp_path / "out"), "map", "--smiles", str(table),
        ])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("[map] ")
