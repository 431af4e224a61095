import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import pdslab
from pdslab.errors import ConfigError
from pdslab.phaselab.cli import main
from pdslab.phaselab.config import SweepConfig, load_config
from pdslab.phaselab.sweep import CSV_HEADER, rows_to_csv, run_sweep, write_outputs
from pdslab.reduction import beta_sharp, beta_star, regime_classify


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# values load_config must reject: a bad enum; integer fields given as a
# float, a boolean or a string; grids that are not arrays of finite numbers; a c
# that is not a number; and string fields given as another type
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

    def test_outputs_written(self, tmp_path):
        path, _ = small_config(tmp_path)
        config = load_config(path)
        csv_path, svg_path = write_outputs(config, run_sweep(config))
        svg = Path(svg_path).read_text(encoding="utf-8")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polygon" in svg and "polyline" in svg
        assert Path(csv_path).read_text(encoding="utf-8").startswith(CSV_HEADER)

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
        from pdslab.reduction import build_pprime as real_build_pprime

        def corrupted(ls, lt, q, gamma):
            pmf, a = real_build_pprime(ls, lt, q, gamma)
            probs = pmf.probs.copy()
            if probs.size >= 2:
                shift = min(1e-6, probs[0] / 2)
                probs[0] -= shift
                probs[1] += shift
            return Pmf(probs), a

        monkeypatch.setattr(tc, "build_pprime", corrupted)
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

    def test_verify_writes_report(self, tmp_path):
        report = tmp_path / "report.jsonl"
        code, out = run_cli("verify", "kernel", "--out", str(report))
        assert code == 0
        assert report.read_text(encoding="utf-8") == out
