import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from xml.etree import ElementTree

import pytest

import pdslab
from pdslab import detectors
from conftest import per_graph_run_point
from pdslab.errors import ConfigError, EdgeListParseError, PdsLabError, TooLargeError
from pdslab.phaselab import cli
from pdslab.phaselab.cli import main
from pdslab.phaselab.config import SweepConfig, load_config
from pdslab.phaselab.sweep import CSV_HEADER, rows_to_csv, run_point, run_sweep, write_outputs
from pdslab.reduction import beta_sharp, beta_star, regime_classify


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# values load_config must reject: a bad enum; integer fields given as a
# float, a boolean or a string; grids that are not arrays of finite numbers; a c
# that is not a number; string fields given as another type; numbers a float
# cannot hold or that overflow one at a grid point; grid points off the
# phase diagram, though K still rounds into [1, N]; and an exact scan past
# its budget, C(60, 40) > 10^7 at the second point
BAD_VALUES = [
    {"test": "median"},
    {"N": 50.9},
    {"trials": True},
    {"restarts": 2.7},
    {"master_seed": "99"},
    {"workers": 1.0},
    {"alpha_grid": "12"},
    {"alpha_grid": [0.3, "0.3"]},
    {"alpha_grid": [0.3, float("nan")]},
    {"beta_grid": [0.4, True]},
    {"beta_grid": 0.4},
    {"c": "3"},
    {"c": True},
    {"output_path": 7},
    {"test": ["lin"]},
    {"scan_mode": 1},
    {"N": 10**400},
    {"alpha_grid": [10**400]},
    {"beta_grid": [400]},
    {"alpha_grid": [-400]},
    {"c": -(10**400)},
    {"alpha_grid": [2.5]},
    {"N": 50, "beta_grid": [-0.1]},
    {"N": 50, "beta_grid": [1.001]},
    {"alpha_grid": [0.5], "beta_grid": [0.4, 0.9], "trials": 3, "test": "scan"},
]


def small_config(tmp_path, **overrides):
    cfg = {
        "alpha_grid": [0.3, 1.2],
        "beta_grid": [0.4, 0.8],
        "N": 60,
        "trials": 20,
        "test": "lin",
        "scan_mode": "exact",
        "master_seed": 99,
        "output_path": str(tmp_path / "sweep"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path), cfg


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        path, raw = small_config(tmp_path)
        config = load_config(path)
        assert config.N == 60 and config.c == 2.0 and config.workers == 1
        assert len(config.points) == 4

    def test_missing_key(self, tmp_path):
        path, raw = small_config(tmp_path)
        broken = {k: v for k, v in raw.items() if k != "trials"}
        p2 = tmp_path / "broken.json"
        p2.write_text(json.dumps(broken), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(p2))

    def test_unknown_key(self, tmp_path):
        path, raw = small_config(tmp_path)
        raw["surprise"] = 1
        p2 = tmp_path / "extra.json"
        p2.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(p2))

    def test_p_above_one_is_an_error_not_a_clip(self, tmp_path):
        path, _ = small_config(tmp_path, alpha_grid=[0.01])
        with pytest.raises(ConfigError):
            load_config(path)

    def test_k_out_of_range(self, tmp_path):
        path, _ = small_config(tmp_path, beta_grid=[0.0001], N=2)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_exact_scan_budget(self, tmp_path):
        grid = {"alpha_grid": [0.5], "beta_grid": [0.4, 0.9], "trials": 3}
        for test in ("scan", "combined"):
            path, _ = small_config(tmp_path, test=test, **grid)
            with pytest.raises(ConfigError, match=r"alpha=0\.5, beta=0\.9 .* C\(60, 40\)"):
                load_config(path)
        for overrides in ({"test": "lin"}, {"test": "scan", "scan_mode": "heuristic"}):
            path, _ = small_config(tmp_path, **{**grid, **overrides})
            assert load_config(path).points == [(0.5, 0.4), (0.5, 0.9)]
        # at the largest N the check stays quick: one subset passes the
        # budget, and its N x N matrix is refused; many subsets fail the budget
        path, _ = small_config(tmp_path, test="scan", N=3037000499, alpha_grid=[2.0],
                               beta_grid=[1.0])
        with pytest.raises(ConfigError, match=r"^grid point alpha=2\.0, beta=1\.0: the exact scan at "
                                              r"N = 3,037,000,499, K = 3,037,000,499 holds "):
            load_config(path)
        path, _ = small_config(tmp_path, test="scan", N=3037000499, alpha_grid=[2.0],
                               beta_grid=[0.5])
        with pytest.raises(ConfigError, match=r"C\(3037000499, 55109\)"):
            load_config(path)

    def test_exact_scan_matrix(self, tmp_path, monkeypatch, capsys):
        # C(10^6, 10^6) = 1 passes the budget; the scan's N x N matrix is
        # refused when the config loads, exit 3, before any graph is drawn
        from pdslab.graphmodels import Graph

        def no_matrix(self):
            raise AssertionError("adjacency_matrix reached")

        monkeypatch.setattr(Graph, "adjacency_matrix", no_matrix)
        path, _ = small_config(tmp_path, test="scan", scan_mode="exact", N=10**6, alpha_grid=[2.0],
                               beta_grid=[1.0])
        with pytest.raises(ConfigError, match=r"K = 1,000,000 holds 3,000,002,000,000 matrix and row entries, "
                                              r"above the cap of 50,000,000; use scan_mode heuristic"):
            load_config(path)
        assert run_cli("sweep", str(path)) == (3, "")
        assert "3,000,002,000,000 matrix and row entries" in capsys.readouterr().err
        # at N = 60 the exact sweep's matrix fits, and its points load
        path, _ = small_config(tmp_path, test="scan", alpha_grid=[2.0], beta_grid=[1.0])
        assert load_config(path).point_params(2.0, 1.0).K == 60

    def test_every_field_is_type_checked(self, tmp_path):
        # each field's check comes from its annotation, so a JSON object,
        # which no field takes, fails at load under the field's own name
        for f in dataclasses.fields(SweepConfig):
            path, _ = small_config(tmp_path, **{f.name: {}})
            with pytest.raises(ConfigError, match=rf"^{f.name} must be a JSON "):
                load_config(path)
        # several bad keys: the first in field order is reported
        path, _ = small_config(tmp_path, c="2", N="60")
        with pytest.raises(ConfigError, match=r"^N must be a JSON integer, got \"60\"$"):
            load_config(path)

    def test_bad_enum(self, tmp_path):
        for override in BAD_VALUES:
            path, _ = small_config(tmp_path, **override)
            with pytest.raises(ConfigError):
                load_config(path)


class TestSweep:
    def test_rows_and_schema(self, tmp_path):
        path, _ = small_config(tmp_path)
        config = load_config(path)
        rows = run_sweep(config)
        assert len(rows) == 4
        csv_text = rows_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        for row in rows:
            assert row["regime"] == regime_classify(row["alpha"], row["beta"])
            assert 0.0 <= row["type1"] <= 1.0 and 0.0 <= row["type2"] <= 1.0

    def test_deterministic_across_workers(self, tmp_path):
        path, _ = small_config(tmp_path)
        config = load_config(path)
        rows1 = run_sweep(config)
        config4 = SweepConfig(**{**config.__dict__, "workers": 4})
        assert rows_to_csv(run_sweep(config4)) == rows_to_csv(rows1)

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    @pytest.mark.parametrize("test", ["lin", "scan", "combined"])
    def test_matches_per_graph_reference(self, tmp_path, test, mode):
        # the same row as deciding one trial graph at a time, at 1 to 5
        # trials; alpha = 0.3 puts the edge count past tau_lin on some
        # graphs and not on others, and beta = 1 gives K = N
        for trials in range(1, 6):
            path, _ = small_config(tmp_path, alpha_grid=[0.3, 0.9], beta_grid=[0.3, 0.6, 1.0],
                                   N=16, trials=trials, test=test, scan_mode=mode, restarts=3)
            config = load_config(path)
            for i, (alpha, beta) in enumerate(config.points):
                assert run_point(config, i, alpha, beta) == per_graph_run_point(config, i, alpha, beta)

    def test_point_memory_does_not_grow_with_trials(self, tmp_path, monkeypatch):
        # every trial graph goes to the heuristic scan, with a few thousand
        # CSR entries each; with _BLOCK = 2**14 they run several at a time,
        # so the peak at 32 trials stays within 256 kB of the peak at 8,
        # where one run of all 64 graphs would add ~2.3 MB
        monkeypatch.setattr(detectors, "_BLOCK", 2**14)
        peaks = []
        for trials in (1, 8, 32):
            path, _ = small_config(tmp_path, alpha_grid=[0.6], beta_grid=[0.9], N=200, trials=trials,
                                   test="scan", scan_mode="heuristic", restarts=4)
            config = load_config(path)
            tracemalloc.start()
            try:
                run_point(config, 0, 0.6, 0.9)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the first point also pays for lazy set-up, so it only warms up
        assert peaks[2] <= peaks[1] + 2**18, peaks

    def test_outputs_written(self, tmp_path):
        path, _ = small_config(tmp_path)
        config = load_config(path)
        rows = run_sweep(config)
        csv_path, svg_path = write_outputs(config, rows)
        svg = Path(svg_path).read_text(encoding="utf-8")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polygon" in svg and "polyline" in svg
        assert Path(csv_path).read_text(encoding="utf-8").startswith(CSV_HEADER)
        # the SVG parses, with the expected elements and labels
        root = ElementTree.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        assert root.tag == ns + "svg"
        counts = {tag: len(root.findall(ns + tag)) for tag in ("polygon", "polyline", "line", "rect")}
        # the background, one overlay cell per row and three legend swatches
        assert counts == {"polygon": 3, "polyline": 2, "line": 2, "rect": 1 + len(rows) + 3}
        texts = root.findall(ns + "text")
        assert [t.text for t in texts] == [
            "0", "0.667", "1", "2", "0", "0.5", "1",
            "alpha (sparsity: q = N^-alpha)", "beta (size: K = N^beta)",
            "simple", "hard", "impossible",
            "solid: detection limit", "dashed: poly-time limit", "cells: dark = errors",
        ]
        assert [t.get("transform") is not None for t in texts].count(True) == 1

    def test_error_rates_ordered_in_alpha(self, tmp_path):
        # stochastic ordering along a fixed beta row: harder (sparser)
        # points have larger type1+type2, within Monte Carlo tolerance
        path, _ = small_config(
            tmp_path,
            alpha_grid=[0.2, 0.8, 1.4],
            beta_grid=[0.7],
            N=200,
            trials=500,
            master_seed=1234,
        )
        rows = run_sweep(load_config(path))
        sums = [r["type1"] + r["type2"] for r in rows]
        for left, right in zip(sums, sums[1:]):
            assert right >= left - 0.1


class TestRegimeCurves:
    def test_star_below_sharp_with_equality_past_two_thirds(self):
        for i in range(0, 801):
            alpha = 2.0 * i / 800
            star, sharp = beta_star(alpha), beta_sharp(alpha)
            assert star <= sharp + 1e-12
            if alpha >= 2 / 3:
                assert star == pytest.approx(sharp, abs=1e-12)
            else:
                assert sharp - star > 1e-12


class TestCli:
    def test_generate_deterministic(self, tmp_path):
        out1 = str(tmp_path / "a.txt")
        out2 = str(tmp_path / "b.txt")
        code1, _ = run_cli("generate", "er", "--n", "50", "--q", "0.1", "--seed", "7", "--out", out1)
        code2, _ = run_cli("generate", "er", "--n", "50", "--q", "0.1", "--seed", "7", "--out", out2)
        assert code1 == code2 == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        assert json.loads(Path(out1 + ".json").read_text())["model"] == "er"

    def test_generate_pc_sidecar_planted_clique(self, tmp_path):
        out = str(tmp_path / "pc.txt")
        code, _ = run_cli(
            "generate", "pc", "--n", "50", "--k", "10", "--gamma", "0.5", "--seed", "1", "--out", out
        )
        assert code == 0
        side = json.loads(Path(out + ".json").read_text())
        assert len(side["planted"]) == 10
        from pdslab.graphmodels import read_edge_list, subgraph_edge_count

        assert subgraph_edge_count(read_edge_list(out), side["planted"]) == 45

    def test_generate_missing_flags_is_usage_error(self, tmp_path):
        code, _ = run_cli("generate", "pc", "--n", "10", "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 2

    def test_test_command_json(self, tmp_path):
        graph = tmp_path / "empty.txt"
        graph.write_text("5 0\n", encoding="utf-8")
        code, out = run_cli(
            "test", str(graph), "--test", "lin", "--K", "3", "--p", "0.5", "--q", "0.2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "H0" and payload["statistic"] == 0.0

    def test_test_scan_on_complete_graph(self, tmp_path):
        out = str(tmp_path / "k5.txt")
        run_cli("generate", "er", "--n", "5", "--q", "1.0", "--seed", "3", "--out", out)
        code, text = run_cli("test", out, "--test", "scan", "--K", "3", "--p", "0.9", "--q", "0.5")
        payload = json.loads(text)
        assert code == 0 and payload["statistic"] == 3.0 and payload["decision"] == "H1"

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        for body in (b"3 1\na b\n", b"3 1\n0 \xff1\n"):
            bad.write_bytes(body)
            code, _ = run_cli("test", str(bad), "--test", "lin", "--K", "2", "--p", "0.5", "--q", "0.2")
            assert code == 3
        for override in BAD_VALUES:
            path, _ = small_config(tmp_path, **override)
            assert run_cli("sweep", path)[0] == 3

    def test_bad_vertex_count_in_header_exit_code(self, tmp_path):
        # a count whose flat edge keys would overflow int64 fails like a
        # negative one, also when the count or an endpoint is past int64
        for header in ("-3 0", "3037000500 1\n0 1", "2 3037000500 1\n0 1",
                       "99999999999999999999 1\n0 99999999999999999998"):
            bad = tmp_path / "bad.txt"
            bad.write_text(header + "\n", encoding="utf-8")
            assert run_cli("reduce", str(bad), "--k", "2", "--gamma", "0.5", "--ell", "2",
                           "--q", "0.01", "--out", str(tmp_path / "r.txt"))[0] == 2

    def test_negative_edge_count_exit_code(self, tmp_path, capsys):
        # a header fault at line 1, still a parse error
        bad = tmp_path / "bad.txt"
        bad.write_text("3 -1\n", encoding="utf-8")
        assert run_cli("test", str(bad), "--test", "lin", "--K", "2", "--p", "0.5",
                       "--q", "0.2") == (3, "")
        assert "line 1: negative edge count -1" in capsys.readouterr().err

    def test_sampler_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        # ~4.5e9 expected edges: refused by the estimate, before any draw
        # that could exhaust memory
        from pdslab import graphmodels

        def drawn(*args):
            raise AssertionError("edges were drawn")

        monkeypatch.setattr(graphmodels, "_bernoulli_flat", drawn)
        out = tmp_path / "big.txt"
        assert run_cli("generate", "er", "--n", "100000", "--q", "0.9", "--seed", "1",
                       "--out", str(out)) == (4, "")
        assert capsys.readouterr().err == (
            "error: expected 4.5e+09 edges, above the sampler's cap of 5e+07\n"
        )
        assert not out.exists()

    def test_no_restarts_exit_code(self, tmp_path):
        out = str(tmp_path / "g.txt")
        run_cli("generate", "er", "--n", "10", "--q", "0.3", "--seed", "3", "--out", out)
        for k in ("1", "2"):
            code, _ = run_cli("test", out, "--test", "scan", "--K", k, "--p", "0.9", "--q", "0.3",
                              "--scan-mode", "heuristic", "--restarts", "0")
            assert code == 2

    def test_budget_exit_code(self, tmp_path):
        out = str(tmp_path / "g.txt")
        run_cli("generate", "er", "--n", "40", "--q", "0.2", "--seed", "3", "--out", out)
        code, _ = run_cli(
            "test", out, "--test", "scan", "--K", "12", "--p", "0.9", "--q", "0.5",
            "--budget", "1000",
        )
        assert code == 4

    def test_budget_exit_code_at_k_one(self, tmp_path):
        # C(10, 1) = 10 subsets exceed a budget of 5, though K = 1 needs no scan
        out = str(tmp_path / "g.txt")
        run_cli("generate", "er", "--n", "10", "--q", "0.3", "--seed", "3", "--out", out)
        code, stdout = run_cli(
            "test", out, "--test", "scan", "--K", "1", "--p", "0.9", "--q", "0.3", "--budget", "5",
        )
        assert (code, stdout) == (4, "")

    def test_budget_below_one_exit_code(self, tmp_path, capsys):
        # a budget below 1 is a usage error, not a budget the scan exceeds
        out = str(tmp_path / "g.txt")
        run_cli("generate", "er", "--n", "10", "--q", "0.3", "--seed", "3", "--out", out)
        capsys.readouterr()
        for budget in ("0", "-1"):
            code, stdout = run_cli(
                "test", out, "--test", "scan", "--K", "3", "--p", "0.9", "--q", "0.3", "--budget", budget,
            )
            assert (code, stdout) == (2, "")
            assert capsys.readouterr().err == f"error: need a budget of at least 1, got {budget}\n"

    def test_reduce_too_large_block_exit_code(self, tmp_path):
        # q = 0 passes the edge estimate, but parts near ell = 3000 make
        # blocks of ~9e6 slots, past the reduction's slot cap
        src = str(tmp_path / "in.txt")
        run_cli("generate", "er", "--n", "10", "--q", "0.3", "--seed", "3", "--out", src)
        out = tmp_path / "red.txt"
        code, _ = run_cli(
            "reduce", src, "--k", "2", "--gamma", "0.5", "--ell", "3000", "--q", "0",
            "--seed", "11", "--out", str(out),
        )
        assert code == 4
        assert not out.exists()

    def test_reduce_too_many_vertices_exit_code(self, tmp_path):
        # N = 4 * 10^9 output vertices: refused before the parent draw, whose
        # one entry per output vertex would need ~30 GiB
        src = str(tmp_path / "in.txt")
        run_cli("generate", "pc", "--n", "2", "--k", "2", "--gamma", "0.5", "--seed", "3", "--out", src)
        out = tmp_path / "red.txt"
        code, _ = run_cli(
            "reduce", src, "--k", "1", "--gamma", "0.5", "--ell", "2000000000", "--q", "0",
            "--seed", "11", "--out", str(out),
        )
        assert code == 4
        assert not out.exists()

    def test_reduce_and_strict(self, tmp_path):
        src = str(tmp_path / "in.txt")
        run_cli("generate", "pc", "--n", "2", "--k", "2", "--gamma", "0.5", "--seed", "3", "--out", src)
        out = str(tmp_path / "red.txt")
        code, _ = run_cli(
            "reduce", src, "--k", "2", "--gamma", "0.5", "--ell", "2", "--q", "0.01",
            "--seed", "11", "--out", out,
        )
        assert code == 0
        header = Path(out).read_text(encoding="utf-8").splitlines()[0].split()
        assert header[0] == "4"
        side = json.loads(Path(out + ".json").read_text())
        assert side["reduction"]["m0"] == 1 and side["reduction"]["N"] == 4
        code, _ = run_cli(
            "reduce", src, "--k", "2", "--gamma", "0.5", "--ell", "2", "--q", "0.4",
            "--strict", "--seed", "11", "--out", str(tmp_path / "red2.txt"),
        )
        assert code == 4
        for gamma in ("nan", "inf", "0.6"):
            code, _ = run_cli(
                "reduce", src, "--k", "2", "--gamma", gamma, "--ell", "2", "--q", "0.01",
                "--seed", "11", "--out", str(tmp_path / "red3.txt"),
            )
            assert code == 2

    def test_sidecar_formats(self, tmp_path):
        # generate sidecars stay v1; reduce sidecars are v2, the reduce
        # stream's layout
        src = str(tmp_path / "in.txt")
        assert run_cli("generate", "pc", "--n", "4", "--k", "2", "--gamma", "0.5", "--seed", "3", "--out", src)[0] == 0
        out = str(tmp_path / "red.txt")
        assert run_cli("reduce", src, "--k", "2", "--gamma", "0.5", "--ell", "2", "--q", "0.01",
                       "--seed", "11", "--out", out)[0] == 0
        assert json.loads(Path(src + ".json").read_text())["format"] == "pdslab-sidecar-v1"
        assert json.loads(Path(out + ".json").read_text())["format"] == "pdslab-sidecar-v2"

    def test_sweep_command(self, tmp_path):
        path, cfg = small_config(tmp_path)
        code, out = run_cli("sweep", path)
        assert code == 0
        assert (tmp_path / "sweep.csv").exists() and (tmp_path / "sweep.svg").exists()

    def test_verify_kernel_clean(self):
        code, out = run_cli("verify", "kernel")
        assert code == 0
        lines = out.strip().split("\n")
        assert all(json.loads(line)["satisfied"] for line in lines)

    def test_verify_detects_injected_kernel_bug(self, monkeypatch):
        # mutation test of the error-detection path: leak a little mass from
        # the planted-block PMF's zero bucket and the mixture identity must
        # flag it with a nonzero exit
        import pdslab.theorychecks as tc
        from pdslab.randkit import Pmf
        from pdslab.reduction import _kernel_laws as real_kernel_laws

        def corrupted(ls, lt, q, gamma, binom=None):
            pmf, q_prime, a = real_kernel_laws(ls, lt, q, gamma, binom)
            probs = pmf.probs.copy()
            if probs.size >= 2:
                shift = min(1e-6, probs[0] / 2)
                probs[0] -= shift
                probs[1] += shift
            return Pmf(probs), q_prime, a

        monkeypatch.setattr(tc, "_kernel_laws", corrupted)
        code, out = run_cli("verify", "kernel")
        assert code == 1
        offenders = [json.loads(line) for line in out.strip().split("\n")]
        assert any(
            not r["satisfied"] and r["name"] == "kernel-mixture-identity" for r in offenders
        )

    def test_reduce_bipartite_graph(self, tmp_path):
        src = str(tmp_path / "bpc.txt")
        code, _ = run_cli(
            "generate", "bpc", "--n", "3", "--k", "2", "--gamma", "0.5", "--seed", "2",
            "--out", src,
        )
        assert code == 0
        out = str(tmp_path / "bred.txt")
        code, _ = run_cli(
            "reduce", src, "--k", "2", "--gamma", "0.5", "--ell", "2", "--q", "0.005",
            "--seed", "4", "--out", out,
        )
        assert code == 0
        header = Path(out).read_text(encoding="utf-8").splitlines()[0].split()
        assert header[0] == "6" and header[1] == "6"

    def test_module_entry_point_is_clean(self):
        # `python -m` runs cli.py as __main__; importing the package must
        # not import it first (runpy warns on stderr if it does)
        src = os.path.dirname(os.path.dirname(pdslab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "pdslab.phaselab.cli", "verify", "kernel"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_scipy_loads_only_for_reduce_and_verify(self, tmp_path):
        # one fresh interpreter: importing the CLI and running generate,
        # test and a heuristic sweep leave scipy.special unloaded; the
        # first reduce loads it for the binomial PMFs
        config, _ = small_config(tmp_path, N=30, trials=2, test="combined", scan_mode="heuristic",
                                 alpha_grid=[0.5], beta_grid=[0.5])
        script = """
import io, json, sys
from contextlib import redirect_stdout
from pdslab.phaselab.cli import main

def run(*argv):
    with redirect_stdout(io.StringIO()):
        return main(list(argv))

tmp, config = sys.argv[1:]
seen = {"import": "scipy.special" in sys.modules}
seen["codes"] = [
    run("generate", "er", "--n", "40", "--q", "0.2", "--seed", "1", "--out", tmp + "/er.txt"),
    run("test", tmp + "/er.txt", "--test", "combined", "--K", "5", "--p", "0.6", "--q", "0.2",
        "--scan-mode", "heuristic"),
    run("sweep", config),
    run("generate", "pc", "--n", "4", "--k", "2", "--gamma", "0.5", "--seed", "3",
        "--out", tmp + "/pc.txt"),
]
seen["commands"] = "scipy.special" in sys.modules
seen["reduce"] = run("reduce", tmp + "/pc.txt", "--k", "2", "--gamma", "0.5", "--ell", "2",
                     "--q", "0.01", "--seed", "11", "--out", tmp + "/red.txt")
seen["after_reduce"] = "scipy.special" in sys.modules
print(json.dumps(seen))
"""
        src = os.path.dirname(os.path.dirname(pdslab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), config],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "import": False, "codes": [0, 0, 0, 0], "commands": False,
            "reduce": 0, "after_reduce": True,
        }
        assert (tmp_path / "sweep.csv").exists() and (tmp_path / "red.txt").exists()

    def test_tiny_rates_sample_no_edges(self, tmp_path):
        # at q = 1e-18 the geometric gaps once summed past 2**63 and wrapped
        # to negative indices, and at 5e-324 the walk never ended: a child
        # process with a timeout turns a hang into a failure
        script = """
import io, json, sys
from contextlib import redirect_stdout
from pdslab.phaselab.cli import main

tmp = sys.argv[1]
runs = []
for q in (1e-18, 1e-300, 5e-324):
    for model, flags in (("er", []), ("ber", []), ("pds", ["--k", "30", "--p", repr(2 * q)])):
        for seed in range(1, 6):
            out = f"{tmp}/{model}.txt"
            argv = ["generate", model, "--n", "1000", "--q", repr(q), *flags, "--seed", str(seed), "--out", out]
            with redirect_stdout(io.StringIO()):
                code = main(argv)
            with open(out, encoding="utf-8") as fh:
                runs.append((model, code, fh.readline().split()[-1]))
print(json.dumps(runs))
"""
        src = os.path.dirname(os.path.dirname(pdslab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout)
        assert len(runs) == 45 and {(code, edges) for _, code, edges in runs} == {(0, "0")}

    def test_verify_writes_report(self, tmp_path):
        report = tmp_path / "report.jsonl"
        code, out = run_cli("verify", "kernel", "--out", str(report))
        assert code == 0
        assert report.read_text(encoding="utf-8") == out

    def test_verify_out_that_cannot_open_prints_no_report(self, tmp_path, capsys):
        code, out = run_cli("verify", "kernel", "--out", str(tmp_path / "missing" / "report.jsonl"))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: ")

    def test_verify_battery_that_raises_keeps_the_old_report(self, tmp_path, monkeypatch):
        report = tmp_path / "report.jsonl"
        report.write_text("earlier run\n", encoding="utf-8")

        def raises():
            raise TooLargeError("enumeration past the cap")

        monkeypatch.setitem(cli._BATTERIES, "kernel", (raises,))
        assert run_cli("verify", "kernel", "--out", str(report)) == (4, "")
        assert report.read_text(encoding="utf-8") == "earlier run\n"


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class TestFrozenOutputs:
    # blake2b-128 digests of `test` stdout and of sweep CSV and SVG; a change
    # here changes a decision, a statistic or a stream
    TEST_DIGESTS = {
        ("lin", "exact"): "ccab5689bfa5b01f8304a6773993c220",
        ("lin", "heuristic"): "ccab5689bfa5b01f8304a6773993c220",
        ("scan", "exact"): "af2e138b0334531f166244f867ff7e34",
        ("scan", "heuristic"): "83c940e2b2ad90652ac6e6912d541307",
        ("combined", "exact"): "e579af0bbae538cd2364c1af65037194",
        ("combined", "heuristic"): "2f6d80699d8c658eb5753a9464c3fefd",
    }
    SWEEP_DIGESTS = {
        "exact": ("d78a79f4100f93430e14d7cb8363dd68", "111d8d92a6fb3b912c81481c9259e72c"),
        "heuristic": ("91878c458e5919c56006a2266543fa98", "111d8d92a6fb3b912c81481c9259e72c"),
    }

    def test_test_stdout(self, tmp_path):
        graph = str(tmp_path / "pc.txt")
        run_cli("generate", "pc", "--n", "60", "--k", "10", "--gamma", "0.5", "--seed", "3", "--out", graph)
        for (test, mode), digest in self.TEST_DIGESTS.items():
            code, out = run_cli("test", graph, "--test", test, "--scan-mode", mode,
                                "--K", "4", "--p", "0.9", "--q", "0.5", "--seed", "4")
            assert code == 0
            assert _digest(out.encode("utf-8")) == digest, (test, mode)

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_sweep_outputs(self, tmp_path, mode):
        path, _ = small_config(tmp_path, alpha_grid=[0.5, 1.0], beta_grid=[0.4, 0.5], N=40,
                               trials=2, test="combined", scan_mode=mode, master_seed=9)
        assert run_cli("sweep", path)[0] == 0
        csv_digest, svg_digest = self.SWEEP_DIGESTS[mode]
        assert _digest((tmp_path / "sweep.csv").read_bytes()) == csv_digest
        assert _digest((tmp_path / "sweep.svg").read_bytes()) == svg_digest

    # (config overrides, CSV digest, SVG digest) over the renderer's branches:
    # one point takes the 0.08 cell width; the 5 x 6 grid's cells and the
    # repeated grid's close alphas take the 14 px floor; beta = 1 gives K = N;
    # the repeated grid's cells reach type1 + type2 = 5/3, clipped at 1
    SWEEP_CONFIG_DIGESTS = {
        "one-point": (dict(alpha_grid=[0.5], beta_grid=[0.5], N=20, trials=5, test="lin"),
            "387161c4e3c8ff325b051c020bdf5e04", "e7ed883456f502a529511d0dba18b172"),
        "grid-5x6": (dict(alpha_grid=[0.3, 0.6, 0.9, 1.2, 1.5], beta_grid=[0.1, 0.3, 0.5, 0.6, 0.8, 1.0],
                          N=30, trials=2, test="combined", scan_mode="heuristic"),
            "2c0d6184afedd3066acf6587c71ad648", "e5757d70b53a4f73c030624914dec8ca"),
        "k-equals-n": (dict(alpha_grid=[2.0, 0.7], beta_grid=[1.0], N=12, trials=3, test="scan"),
            "43603f88d3d0e62c136c6d61e4401b59", "ffab985f3cc1aa26162ab1069be8b268"),
        "repeated": (dict(alpha_grid=[0.3, 0.35, 0.3], beta_grid=[0.0, 0.6, 0.0], N=25, c=1.5,
                          trials=3, test="lin"),
            "11db723220a2127a0e15c60b81c3333d", "73d41861abfc175b4aa1b411763449c0"),
        # the benchmark's heuristic sweep, and a scan-test one, where every
        # trial graph goes to the heuristic scan
        "bench-heuristic": (dict(alpha_grid=[0.2, 0.6, 1.0, 1.4], beta_grid=[0.3, 0.5, 0.7, 0.9],
                                 N=200, trials=4, test="combined", scan_mode="heuristic", restarts=16),
            "8589edcb067dcd04c0f2eca441a565d8", "47ec13c6e7a31ac10afdbe742c07c0e9"),
        "scan-heuristic": (dict(alpha_grid=[0.2, 0.3], beta_grid=[0.7, 0.9], N=80, c=1.5, trials=3,
                                test="scan", scan_mode="heuristic", restarts=5),
            "feaf8c63b2ecd4165169507fc57ba2fc", "d44b4fb7f62d1f8384aa1af01d72e502"),
    }

    @pytest.mark.parametrize("name", sorted(SWEEP_CONFIG_DIGESTS))
    def test_sweep_config_outputs(self, tmp_path, name):
        overrides, csv_digest, svg_digest = self.SWEEP_CONFIG_DIGESTS[name]
        path, _ = small_config(tmp_path, master_seed=9, **overrides)
        assert run_cli("sweep", path)[0] == 0
        assert _digest((tmp_path / "sweep.csv").read_bytes()) == csv_digest
        assert _digest((tmp_path / "sweep.svg").read_bytes()) == svg_digest

    # `verify` stdout per battery; a change here moves a checked float
    VERIFY_DIGESTS = {
        "kernel": "5cbf3bfe9b3320308a2920bb443f5bb0",
        "lemmas": "553b5865581e01e77e8b69b113ae891f",
        "reduction-exact": "d4473f6d03c8e41b9d771d445a36e59a",
    }

    @pytest.mark.parametrize("battery", sorted(VERIFY_DIGESTS))
    def test_verify_outputs(self, tmp_path, battery):
        report = tmp_path / "report.jsonl"
        code, out = run_cli("verify", battery, "--out", str(report))
        assert code == 0
        assert _digest(out.encode("utf-8")) == self.VERIFY_DIGESTS[battery]
        assert report.read_bytes() == out.encode("utf-8")

    def test_verify_reduction_exact_values(self):
        # beside the digest: the v2 floats stay within 1e-9 relative of v1's,
        # the fixed bounds are exact and the null residues stay rounding-sized
        code, out = run_cli("verify", "reduction-exact")
        assert code == 0
        reports = {r["name"]: r for r in map(json.loads, out.splitlines())}
        assert list(reports) == [
            "reduction-null-exactness",
            "reduction-alt-tv-decreasing",
            "reduction-alt-fidelity-ratio-bipartite-upper",
            "reduction-alt-fidelity-ratio-bipartite-lower",
            "reduction-null-exactness-bipartite",
        ]
        assert all(r["satisfied"] is True for r in reports.values())
        for name in ("reduction-null-exactness", "reduction-null-exactness-bipartite"):
            assert reports[name]["rhs"] == 1e-12
            assert 0.0 <= reports[name]["lhs"] <= 1e-14
        tvs = reports["reduction-alt-tv-decreasing"]
        assert tvs["lhs"] == pytest.approx(0.002981300917203721, rel=1e-9)
        assert tvs["rhs"] == pytest.approx(0.028175179092875053, rel=1e-9)
        upper = reports["reduction-alt-fidelity-ratio-bipartite-upper"]
        lower = reports["reduction-alt-fidelity-ratio-bipartite-lower"]
        assert (upper["rhs"], lower["lhs"]) == (200.0, 50.0)
        assert upper["lhs"] == lower["rhs"] == pytest.approx(88.5715612525727, rel=1e-9)

    # (argv after the model, edge-list digest, sidecar digest) per model;
    # the er row also gives a flag its model does not need, which the
    # sidecar's params record
    GENERATE_DIGESTS = {
        "er": (("--n", "12", "--q", "0.3", "--gamma", "0.25"),
            "10de24a7f7715729528969887d78ced2", "ab96751f52724af5180f79a28d55c828"),
        "pds": (("--n", "12", "--k", "4", "--p", "0.8", "--q", "0.2"),
            "0bcd2676e85da8eea4e2e1557aef7ab4", "804f2bb33e4bd51249c6cbf0f79dcaa2"),
        "pds-fixed": (("--n", "12", "--k", "4", "--p", "0.8", "--q", "0.2"),
            "6d71498d983f6da4357e8f1ca487f94e", "a4e575ad0c98724c065f234079cae30e"),
        "pc": (("--n", "12", "--k", "4", "--gamma", "0.5"),
            "b49136f99dcefc748e1e60df6419a995", "ada3dc864992ec880607e85703a65b55"),
        "ber": (("--n", "6", "--q", "0.3"),
            "adce6a3081540bd8180896d2ab5b0468", "15c0982832c8a9ef425c079401235135"),
        "bpds": (("--n", "6", "--k", "3", "--p", "0.8", "--q", "0.2"),
            "fb93a1f4c1f3b9fcd7b3a86c25d37b91", "76a7c12585add1d16d713951cbff96c8"),
        "bpc": (("--n", "6", "--k", "3", "--gamma", "0.5"),
            "85a7ea7f829eb1b232425dad3625378f", "29c3357a0c52643c37f665204241fd35"),
    }
    # (input model and argv, edge-list digest, sidecar digest); every input
    # breaks k >= 6e*ell, which reduce warns of
    REDUCE_DIGESTS = {
        "unipartite": (("pc", "--n", "6", "--k", "3", "--gamma", "0.5"),
            "60ab0a041cc27b662c61f2c45a499dea", "e7c16b2bcc7bf6ea8ee25dce11fdd57f"),
        "bipartite": (("bpc", "--n", "3", "--k", "2", "--gamma", "0.5"),
            "b5731fe6e5b7c66517fcd85407778d54", "bdfe7d162de4885d4bfa1a1e29f24faf"),
    }

    @pytest.mark.parametrize("model", sorted(GENERATE_DIGESTS))
    def test_generate_outputs(self, tmp_path, model):
        flags, graph_digest, sidecar_digest = self.GENERATE_DIGESTS[model]
        out = str(tmp_path / "g.txt")
        assert run_cli("generate", model, *flags, "--seed", "5", "--out", out) == (0, out + "\n")
        assert _digest(Path(out).read_bytes()) == graph_digest
        assert _digest(Path(out + ".json").read_bytes()) == sidecar_digest

    @pytest.mark.parametrize("kind", sorted(REDUCE_DIGESTS))
    def test_reduce_outputs(self, tmp_path, capsys, kind):
        source, graph_digest, sidecar_digest = self.REDUCE_DIGESTS[kind]
        src = str(tmp_path / "in.txt")
        assert run_cli("generate", *source, "--seed", "3", "--out", src)[0] == 0
        capsys.readouterr()
        out = str(tmp_path / "red.txt")
        assert run_cli("reduce", src, "--k", "2", "--gamma", "0.5", "--ell", "2", "--q", "0.01",
                       "--seed", "11", "--out", out) == (0, out + "\n")
        assert _digest(Path(out).read_bytes()) == graph_digest
        assert _digest(Path(out + ".json").read_bytes()) == sidecar_digest
        assert capsys.readouterr().err == "warning: k = 2 < 6e*ell = 32.6194\n"


def _concrete_errors(cls=PdsLabError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_errors(sub)


class TestExitCodes:
    # main's exit code for every PdsLabError subclass raised inside a command
    ERROR_EXITS = {
        "BudgetExceededError": 4,
        "ConfigError": 3,
        "ContractViolationError": 2,
        "EdgeListParseError": 3,
        "InvalidGammaError": 2,
        "InvalidParameterError": 2,
        "InvalidPmfError": 2,
        "InvalidProbabilityError": 2,
        "PreconditionViolationError": 4,
        "TooLargeError": 4,
        "ValidityViolationError": 4,
        "VertexCountMismatchError": 4,
    }
    # the usage error of each model given none of its flags
    MISSING_FLAGS = {
        "er": "model 'er' needs --n, --q",
        "pds": "model 'pds' needs --n, --k, --p, --q",
        "pds-fixed": "model 'pds-fixed' needs --n, --k, --p, --q",
        "pc": "model 'pc' needs --n, --k, --gamma",
        "ber": "model 'ber' needs --n, --q",
        "bpds": "model 'bpds' needs --n, --k, --p, --q",
        "bpc": "model 'bpc' needs --n, --k, --gamma",
    }

    def test_error_table(self, monkeypatch, capsys):
        assert {cls.__name__ for cls in _concrete_errors()} == set(self.ERROR_EXITS)
        for cls in _concrete_errors():
            exc = cls("boom", 7) if cls is EdgeListParseError else cls("boom")

            def battery(exc=exc):
                raise exc

            monkeypatch.setitem(cli._BATTERIES, "kernel", (battery,))
            assert run_cli("verify", "kernel") == (self.ERROR_EXITS[cls.__name__], "")
            message = "line 7: boom" if cls is EdgeListParseError else "boom"
            assert capsys.readouterr().err == f"error: {message}\n", cls
        monkeypatch.setitem(cli._BATTERIES, "kernel", (lambda: open(os.devnull + "/x"),))
        assert run_cli("verify", "kernel") == (2, "")
        assert capsys.readouterr().err.startswith("error: [Errno")

    @pytest.mark.parametrize("model", sorted(MISSING_FLAGS))
    def test_missing_flags(self, tmp_path, capsys, model):
        out = tmp_path / "x"
        assert run_cli("generate", model, "--seed", "1", "--out", str(out)) == (2, "")
        assert capsys.readouterr().err == f"error: {self.MISSING_FLAGS[model]}\n"
        assert not out.exists()

    def test_missing_some_flags(self, tmp_path, capsys):
        assert run_cli("generate", "pc", "--n", "10", "--k", "3", "--seed", "1",
                       "--out", str(tmp_path / "x"))[0] == 2
        assert capsys.readouterr().err == "error: model 'pc' needs --gamma\n"

    def test_exact_scan_budget_on_a_huge_graph(self, tmp_path, capsys):
        # C(10^6, 5 * 10^5) is never built: a clean exit 4, not a traceback
        # after seconds of big-integer arithmetic
        from pdslab.graphmodels import Graph, write_edge_list

        path = str(tmp_path / "empty.txt")
        write_edge_list(Graph(10**6, []), path)
        assert run_cli("test", path, "--test", "scan", "--K", "500000", "--p", "0.5",
                       "--q", "0.1") == (4, "")
        err = capsys.readouterr().err
        assert err.startswith("error: C(1000000,500000) >= ") and len(err) < 400

    def test_exact_scan_matrix_on_a_huge_graph(self, tmp_path, monkeypatch, capsys):
        # C(10^6, 999999) = 10^6 passes the budget; the N x N matrix is
        # refused, exit 4, before it is built
        from pdslab.graphmodels import Graph

        def no_matrix(self):
            raise AssertionError("adjacency_matrix reached")

        monkeypatch.setattr(Graph, "adjacency_matrix", no_matrix)
        path = tmp_path / "empty.txt"
        path.write_text("1000000 0\n", encoding="utf-8")
        assert run_cli("test", str(path), "--test", "scan", "--K", "999999", "--p", "0.5",
                       "--q", "0.1") == (4, "")
        assert capsys.readouterr().err == (
            "error: the exact scan at N = 1,000,000, K = 999,999 holds 3,000,000,000,000 matrix and "
            "row entries, above the cap of 50,000,000\n"
        )

    def test_per_vertex_arrays_on_a_huge_graph(self, tmp_path, monkeypatch, capsys):
        # at 10^9 vertices G(N, 0) and the lin test hold no array of N
        # entries and finish; a planted set and a heuristic scan would, and
        # exit 4 on the estimate before a stream is taken or an edge read
        from pdslab import graphmodels
        from pdslab.graphmodels import Graph

        path = str(tmp_path / "empty.txt")
        assert run_cli("generate", "er", "--n", "1000000000", "--q", "0", "--seed", "1", "--out", path)[0] == 0
        assert run_cli("test", path, "--test", "lin", "--K", "10", "--p", "0.5", "--q", "0.1")[0] == 0

        def allocated(*args):
            raise AssertionError("a per-vertex array was on its way")

        monkeypatch.setattr(graphmodels, "as_seed", allocated)
        monkeypatch.setattr(Graph, "edges", property(allocated))
        capsys.readouterr()
        for model in ("pds", "pds-fixed"):
            assert run_cli("generate", model, "--n", "1000000000", "--k", "10", "--p", "0.5", "--q", "0",
                           "--seed", "1", "--out", str(tmp_path / "planted.txt")) == (4, "")
        assert run_cli("test", path, "--test", "scan", "--scan-mode", "heuristic", "--K", "10",
                       "--p", "0.5", "--q", "0.1") == (4, "")
        message = "error: 1,000,000,000 vertices, above the cap of 50,000,000 on per-vertex arrays\n"
        assert capsys.readouterr().err == message * 3
        assert not (tmp_path / "planted.txt").exists()

    def test_sweep_workers_override_is_checked(self, tmp_path, capsys):
        # a bad flag is a usage error, not a config error
        path, _ = small_config(tmp_path)
        for workers in ("0", "-3"):
            assert run_cli("sweep", path, "--workers", workers) == (2, "")
            assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_workers_in_config_is_checked(self, tmp_path, capsys):
        path, _ = small_config(tmp_path, workers=0)
        assert run_cli("sweep", path) == (3, "")
        assert capsys.readouterr().err == "error: workers and restarts must be >= 1\n"
        assert not (tmp_path / "sweep.csv").exists()
