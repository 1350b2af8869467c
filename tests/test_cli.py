"""CLI surface: subcommands, exit codes, serialization contracts."""

import json
import math
import subprocess
import sys
from dataclasses import replace

import pytest

from holdercert.checks import CheckResult
from holdercert.cli import main
from holdercert.constants import ConstantsRow
from holdercert.holder import piece_bounds
from holdercert.optimizer import global_sup
from holdercert.report import (
    VerificationReport,
    report_to_dict,
    report_to_json,
    report_to_markdown,
    run_verification,
)
from holdercert.roots import find_alpha


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.fixture(scope="module")
def small_report():
    return run_verification(n_max=2)


class TestVerify:
    def test_exit_zero_and_json(self, tmp_path, small_report, monkeypatch):
        out = tmp_path / "report.json"
        code = main(["verify", "--n-max", "2", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["failed"] == 0
        assert data["summary"]["passed"] == len(data["checks"]) - data["summary"]["undecided"]
        assert data["tool_version"]
        # constants rows n = 1..2, with C_1 < 2.26
        assert [row["n"] for row in data["constants_table"]] == [1, 2]
        assert data["constants_table"][0]["c"] < 2.26

    def test_json_is_strict(self, small_report):
        json.loads(report_to_json(small_report), parse_constant=_reject_constant)
        bad = replace(small_report.checks[0], margin=math.nan)
        with pytest.raises(ValueError):
            report_to_json(replace(small_report, checks=[bad, *small_report.checks[1:]]))

    def test_json_roundtrip_fixpoint(self, small_report):
        text = report_to_json(small_report)
        parsed = json.loads(text)
        again = json.dumps(parsed, indent=2) + "\n"
        assert json.loads(again) == parsed
        assert again == text

    def test_every_check_has_anchor(self, small_report):
        for c in small_report.checks:
            assert c.anchor.strip()

    def test_summary_tallies(self, small_report):
        s = small_report.summary
        assert s["passed"] + s["failed"] + s["undecided"] == len(small_report.checks)

    def test_markdown_renders(self, small_report):
        md = report_to_markdown(small_report)
        assert md.startswith("# holdercert verification report")
        assert "| id | verdict | margin | anchor |" in md

    def test_markdown_via_cli(self, tmp_path):
        out = tmp_path / "report.md"
        code = main(["verify", "--n-max", "2", "--format", "md", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("# holdercert")

    def test_determinism_small(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--n-max", "2", "--out", str(a)]) == 0
        assert main(["verify", "--n-max", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_exit_one_on_failure(self, monkeypatch, tmp_path):
        failing = VerificationReport(
            tool_version="0.0.0",
            config={},
            checks=[CheckResult("x", "x", "failed", -1.0)],
            constants_table=[],
        )
        monkeypatch.setattr("holdercert.cli.run_verification", lambda n_max: failing)
        assert main(["verify", "--out", str(tmp_path / "r.json")]) == 1

    def test_strict_flags_undecided(self, monkeypatch, tmp_path):
        undecided = VerificationReport(
            tool_version="0.0.0",
            config={},
            checks=[CheckResult("x", "x", "undecided", 0.0)],
            constants_table=[],
        )
        monkeypatch.setattr("holdercert.cli.run_verification", lambda n_max: undecided)
        # undecided fails the run by default; --strict is not an option
        assert main(["verify", "--out", str(tmp_path / "r.json")]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--strict", "--out", str(tmp_path / "r2.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "r2.json").exists()

    @pytest.mark.parametrize("n_max", ["0", "-3", "652", "10000", "10001"])
    def test_n_max_out_of_range_exit_two(self, n_max, monkeypatch, capsys):
        def fail(n_max):
            raise AssertionError("verification ran for an out-of-range --n-max")

        monkeypatch.setattr("holdercert.cli.run_verification", fail)
        assert main(["verify", "--n-max", n_max]) == 2
        assert "--n-max" in capsys.readouterr().err

    def test_n_max_upper_limit_accepted(self, monkeypatch, tmp_path):
        seen = []

        def record(n_max):
            seen.append(n_max)
            return VerificationReport("0.0.0", {}, [], [])

        monkeypatch.setattr("holdercert.cli.run_verification", record)
        assert main(["verify", "--n-max", "651", "--out", str(tmp_path / "r.json")]) == 0
        assert seen == [651]

    def test_io_error_exit_two(self, tmp_path):
        assert main(["verify", "--n-max", "1", "--out", str(tmp_path / "no" / "dir.json")]) == 2


class TestRoots:
    def test_table(self, capsys):
        assert main(["roots", "--n", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split() == ["n", "alpha", "theta", "bracket_width", "residual"]
        assert len(lines) == 4
        first = lines[1].split()
        assert float(first[1]) == pytest.approx(4.493409457909064, abs=1e-12)

    def test_known_lower_bounds(self, capsys):
        # alpha_2 > 7.7245 and alpha_3 > 10.9038, the proof's landmarks
        assert main(["roots", "--n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[2].split()[1]) > 7.7245
        assert float(lines[3].split()[1]) > 10.9038

    def test_residual_gate(self, monkeypatch, capsys):
        # the gate is alpha ulp(alpha), twice what binary64 alpha alone leaves
        def loose(n):
            cert = find_alpha(n)
            return replace(cert, residual=2 * cert.alpha * math.ulp(cert.alpha)) if n == 3 else cert

        monkeypatch.setattr("holdercert.cli.find_alpha", loose)
        assert main(["roots", "--n", "5"]) == 1
        captured = capsys.readouterr()
        assert "n=3" in captured.err
        assert len(captured.out.strip().splitlines()) == 4

    def test_no_tol_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--tol", "1e-10"])
        assert exc.value.code == 2

    def test_every_certified_root_passes_the_gate(self, tmp_path):
        out = tmp_path / "r.txt"
        assert main(["roots", "--n", "10000", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 10_001

    @pytest.mark.parametrize("n", ["0", "10001"])
    def test_n_out_of_range_exit_two(self, n, monkeypatch, capsys):
        def fail(n):
            raise AssertionError("roots certified for an out-of-range --n")

        monkeypatch.setattr("holdercert.cli.find_alpha", fail)
        assert main(["roots", "--n", n]) == 2
        assert "--n" in capsys.readouterr().err

    def test_n_upper_limit_accepted(self, monkeypatch, tmp_path):
        seen = []

        def record(n):
            seen.append(n)
            return find_alpha(1)

        monkeypatch.setattr("holdercert.cli.find_alpha", record)
        assert main(["roots", "--n", "10000", "--out", str(tmp_path / "r.txt")]) == 0
        assert seen[-1] == 10000


class TestConstantsCmd:
    def test_table(self, capsys):
        assert main(["constants", "--n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        c1 = float(lines[1].split()[-1])
        assert c1 == pytest.approx(2.2563463338991654, rel=1e-12)

    @pytest.mark.parametrize("n", ["0", "10000"])
    def test_n_out_of_range_exit_two(self, n, monkeypatch, capsys):
        # row n reads alpha_{n+1}, and roots are certified up to n = 10000
        def fail(n):
            raise AssertionError("constants computed for an out-of-range --n")

        monkeypatch.setattr("holdercert.cli.c_n", fail)
        assert main(["constants", "--n", n]) == 2
        assert "--n" in capsys.readouterr().err

    def test_n_upper_limit_accepted(self, monkeypatch, tmp_path):
        seen = []

        def record(n):
            seen.append(n)
            return ConstantsRow(n, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

        monkeypatch.setattr("holdercert.cli.c_n", record)
        assert main(["constants", "--n", "9999", "--out", str(tmp_path / "c.txt")]) == 0
        assert seen[-1] == 9999


class TestNorm:
    def test_small_search(self, tmp_path):
        out = tmp_path / "norm.json"
        assert main(["norm", "--n", "3", "--resolution", "64", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["sup_estimate"] <= math.sqrt(2.0) + 1e-9
        assert data["sup_estimate"] >= math.sqrt(2.0 / math.pi) - 1e-9
        assert {"arg", "per_interval", "method_breakdown", "bound_certificate"} <= set(data)

    def test_alternate_exponent_runs(self, tmp_path):
        out = tmp_path / "norm04.json"
        assert main(["norm", "--alpha", "0.4", "--n", "2", "--resolution", "64", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert math.isfinite(data["sup_estimate"])

    def test_off_half_exponent_is_strict_json(self, tmp_path):
        # RFC 8259 has no NaN; below alpha 1/2 there is no certified bound
        out = tmp_path / "norm035.json"
        assert main(["norm", "--alpha", "0.35", "--n", "20", "--resolution", "64", "--out", str(out)]) == 0
        data = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert data["bound_certificate"] is None
        assert data["tail_checks"] == []

    def test_non_finite_value_exits_two(self, tmp_path, monkeypatch):
        rep = replace(global_sup(2, 8.0, 64), sup_estimate=math.inf)
        monkeypatch.setattr("holdercert.cli.global_sup", lambda **kw: rep)
        out = tmp_path / "norm.json"
        assert main(["norm", "--out", str(out)]) == 2
        assert not out.exists()

    def test_config_error(self):
        assert main(["norm", "--n", "0"]) == 2

    def test_n_beyond_last_piece_exit_two(self, monkeypatch, capsys):
        # piece J_10000 would read alpha_10001, past the certified roots
        def fail(*args):
            raise AssertionError("search ran for an out-of-range --n")

        monkeypatch.setattr("holdercert.optimizer._piece_sups", fail)
        with pytest.raises(AssertionError, match="search ran"):
            main(["norm", "--n", "1", "--resolution", "64"])  # entry point is live
        assert main(["norm", "--n", "10000"]) == 2
        assert "n_intervals" in capsys.readouterr().err

    @pytest.mark.parametrize("x_cap", ["1.0000000000000002e10", "1e12", "1.7976931348623157e308"])
    def test_x_cap_past_the_decided_range_exit_two(self, x_cap, monkeypatch, tmp_path, capsys):
        def fail(*args):
            raise AssertionError("search ran for an out-of-range --x-cap")

        monkeypatch.setattr("holdercert.optimizer._piece_sups", fail)
        out = tmp_path / "norm.json"
        assert main(["norm", "--x-cap", x_cap, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "x_cap" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("resolution", ["65537", "1048576"])
    def test_resolution_past_the_bound_exit_two(self, resolution, monkeypatch, tmp_path, capsys):
        def fail(*args):
            raise AssertionError("search ran for an out-of-range --resolution")

        monkeypatch.setattr("holdercert.optimizer._piece_sups", fail)
        out = tmp_path / "norm.json"
        assert main(["norm", "--resolution", resolution, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "grid_resolution" in captured.err and captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("x_cap", ["inf", "-inf", "nan"])
def test_non_finite_x_cap_exit_two(x_cap, monkeypatch, tmp_path, capsys):
    def fail(*args):
        raise AssertionError("work ran for a non-finite --x-cap")

    monkeypatch.setattr("holdercert.optimizer._piece_sups", fail)
    monkeypatch.setattr("holdercert.cli.piece_bounds", fail)
    for command in (["norm", "--n", "2", "--resolution", "64"], ["landscape", "--n", "0"]):
        out = tmp_path / "out.txt"
        assert main([*command, f"--x-cap={x_cap}", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "x_cap" in captured.err and captured.out == ""
        assert not out.exists()


class TestLandscape:
    def test_row_count_and_bound(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["landscape", "--n", "1", "--resolution", "64", "--out", str(out)]) == 0
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,q"
        assert len(lines) == 1 + 64 * 64
        for line in lines[1:]:
            q = float(line.split(",")[2])
            assert q <= math.sqrt(2.0) + 1e-9

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["landscape", "--n", "1", "--resolution", "16", "--out", str(a)]) == 0
        assert main(["landscape", "--n", "1", "--resolution", "16", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # J_0 starts at 1/alpha_1 = 0.2225, so a cap at 0.1 would grid outside it
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--n", "0", "--x-cap", "0.1"], "x_cap"),
            (["--n", "0", "--x-cap", "inf"], "x_cap"),
            (["--n", "0", "--x-cap", "nan"], "x_cap"),
            (["--resolution", "0"], "--resolution"),
            (["--resolution", "1"], "--resolution"),
            (["--n", "-1"], "--n must be in [0, 9999], got -1"),
            (["--n", "10000"], "--n must be in [0, 9999], got 10000"),
        ],
    )
    def test_bad_grid_exit_two(self, tmp_path, capsys, flags, named):
        out = tmp_path / "l.csv"
        assert main(["landscape", *flags, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, resolution", [(0, 64), (3, 64), (1, 7), (200, 100)])
    def test_grid_is_linspace(self, tmp_path, n, resolution):
        import numpy as np

        out = tmp_path / "l.csv"
        assert main(["landscape", "--n", str(n), "--resolution", str(resolution), "--out", str(out)]) == 0
        xs = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1::resolution]]
        assert xs == np.linspace(*piece_bounds(n, 8.0), resolution).tolist()

    def test_smallest_grid(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["landscape", "--n", "0", "--resolution", "2", "--x-cap", "0.3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 2



def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that has imported nothing of the package."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)


class TestImports:
    """numpy loads only in the commands that compute with arrays."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (None, None),
            (["--version"], 0),
            (["--help"], 0),
            (["roots", "--n", "50"], 0),
            (["verify", "--n-max", "652"], 2),
            (["constants", "--n", "10000"], 2),
            (["norm", "--resolution", "63"], 2),
            (["landscape", "--x-cap", "inf"], 2),
            (["landscape", "--n", "3", "--resolution", "64"], 0),
            (["norm", "--x-cap", "1e12"], 2),
            (["norm", "--resolution", "65537"], 2),
        ],
    )
    def test_no_numpy(self, argv, code):
        if argv is None:
            run = ""
        else:
            run = f"""
try:
    code = main({argv!r})
except SystemExit as exc:
    code = exc.code
assert code == {code!r}, code
"""
        proc = _fresh(
            "import sys\nimport holdercert\nfrom holdercert.cli import main\n"
            + run
            + "sys.exit('numpy loaded' if 'numpy' in sys.modules else 0)"
        )
        assert proc.returncode == 0, proc.stderr

    def test_norm_loads_numpy_when_it_searches(self):
        proc = _fresh(
            "import sys\nfrom holdercert.cli import main\n"
            "assert main(['norm', '--n', '2', '--resolution', '64']) == 0\n"
            "assert 'numpy' in sys.modules"
        )
        assert proc.returncode == 0, proc.stderr
        assert abs(json.loads(proc.stdout)["sup_estimate"] - 1.33836) < 1e-5

    def test_cli_imports_the_modules_the_bench_recorder_wraps(self):
        # bench/layers.py rebinds optimizer.f/df/ddf through sys.modules and
        # counts quadrature.composite_simpson calls, all after importing the cli
        proc = _fresh(
            "import sys\nimport holdercert.cli\n"
            "assert {'holdercert.optimizer', 'holdercert.quadrature'} <= set(sys.modules)\n"
            "from holdercert import holder, optimizer\n"
            "assert optimizer.f is holder.f and optimizer.df is holder.df and optimizer.ddf is holder.ddf"
        )
        assert proc.returncode == 0, proc.stderr
