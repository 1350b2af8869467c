"""CLI surface: subcommands, exit codes, serialization contracts."""

import hashlib
import json
import math
import re
import subprocess
import sys

import pytest

import holdercert.optimizer as opt
from holdercert.checks import CheckResult
from holdercert.cli import main
from holdercert.constants import ConstantsRow
from holdercert.holder import QuotientRecord, piece_bounds
from holdercert.interval import Interval
from holdercert.optimizer import ConfigError, SupremumReport, global_sup
from holdercert.report import (
    VERIFY_N_MAX,
    VerificationReport,
    report_to_dict,
    report_to_json,
    report_to_markdown,
    run_verification,
)
from holdercert.roots import RootCertificate, find_alpha


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
        # constants rows n = 1..2, with C_1 < 2.26; an interval is the list [lo, hi]
        assert [row["n"] for row in data["constants_table"]] == [1, 2]
        lo, hi = data["constants_table"][0]["c"]
        assert lo <= hi < 2.26

    def test_json_is_strict(self, small_report):
        json.loads(report_to_json(small_report), parse_constant=_reject_constant)
        bad = small_report.checks[0]._replace(margin=math.nan)
        with pytest.raises(ValueError):
            report_to_json(small_report._replace(checks=[bad, *small_report.checks[1:]]))

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

    def test_markdown_cells_escape_pipes(self, tmp_path):
        out = tmp_path / "report.md"
        assert main(["verify", "--n-max", "200", "--format", "md", "--out", str(out)]) == 0
        text = out.read_text()
        width = None  # cells of the current table's header
        for line in text.splitlines():
            if not line.startswith("|"):
                width = None
                continue
            cells = len(re.split(r"(?<!\\)\|", line))
            width = width or cells
            assert cells == width, line
        escaped = [line.split(" | ")[0] for line in text.splitlines() if "\\|" in line]
        assert escaped == [f"| prop-ineq/{i:02d}" for i in (0, 1, 3, 4, 5, 7)]
        # the whole report, with its escapes undone
        unescaped = text.replace("\\|", "|").encode()
        assert hashlib.sha256(unescaped).hexdigest() == (
            "9b56986de164e33ab92bd4737e464be60d1edd81242f77e3ff0e62fafd72d025"
        )
        # the text above the constants table, pinned apart from the table
        checks = text[: text.index("## Constants")].encode()
        assert hashlib.sha256(checks).hexdigest() == (
            "c7930c918e9d53e7c2b9288205a17a3bb3cc1c7a95adecfb94c88633fcab15f5"
        )

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
        def fail(n):
            raise AssertionError("a check ran for an out-of-range --n-max")

        monkeypatch.setattr("holdercert.report.check_theta_upper_bounds", fail)
        assert main(["verify", "--n-max", n_max]) == 2
        assert "n_max must be in [1, 651]" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", [0, 652])
    def test_run_verification_rejects_undecided_range(self, n_max):
        # the library call owns the decided range: it fails loudly, not undecided
        with pytest.raises(ConfigError, match="n_max"):
            run_verification(n_max)

    def test_every_result_built_is_reported(self, monkeypatch):
        # one verdict per reported check: no sub-check under an id no report shows
        built = []
        new = CheckResult.__new__

        def recording(cls, *args):
            built.append(new(cls, *args))
            return built[-1]

        monkeypatch.setattr(CheckResult, "__new__", recording)
        report = run_verification(20)
        shown = {c.check_id for c in report.checks}
        assert [r.check_id for r in built if r.check_id not in shown] == []
        assert len(built) == len(report.checks)

    def test_n_max_upper_limit_accepted(self, monkeypatch, tmp_path):
        seen = []

        def record(n_max):
            seen.append(n_max)
            return VerificationReport("0.0.0", {}, [], [])

        monkeypatch.setattr("holdercert.cli.run_verification", record)
        assert main(["verify", "--n-max", "651", "--out", str(tmp_path / "r.json")]) == 0
        assert seen == [651]

    def test_whole_campaign_at_the_ceiling(self):
        # the largest n_max verify accepts is one the campaign decides
        report = run_verification(VERIFY_N_MAX)
        assert report.ok and report.summary["passed"] == 5952

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
            return cert._replace(residual=2 * cert.alpha * math.ulp(cert.alpha)) if n == 3 else cert

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
        assert lines[0].split() == list(ConstantsRow._fields)
        assert all(len(line.split()) == len(ConstantsRow._fields) for line in lines)
        # an interval cell is [lo,hi]; C_1 from 60-digit mpmath lies inside
        lo, hi = json.loads(lines[1].split()[-1])
        assert lo <= 2.2563463338991654 <= hi

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
            zero = Interval(0.0, 0.0)
            return ConstantsRow(n, zero, zero, zero, zero, 0.0, zero, zero, zero)

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

    @pytest.mark.parametrize("alpha, resolution", [(0.5, 512), (0.35, 64), (0.25, 65)])
    def test_one_row_per_piece(self, tmp_path, alpha, resolution):
        out = tmp_path / "norm.json"
        assert main(["norm", "--alpha", str(alpha), "--resolution", str(resolution), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        rows = data["per_interval"]
        assert [list(row) for row in rows] == [["n", "x", "y", "q"]] * 201
        assert [row["n"] for row in rows] == list(range(201))
        assert data["arg"] in rows
        want = global_sup(200, 8.0, resolution, alpha)
        assert rows == [rec._asdict() for rec in want.per_interval]
        assert data["arg"] == want.arg._asdict()

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
        rep = global_sup(2, 8.0, 64)._replace(sup_estimate=math.inf)
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
    out = tmp_path / "out.txt"
    assert main(["norm", "--n", "2", "--resolution", "64", f"--x-cap={x_cap}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "x_cap" in captured.err and captured.out == ""
    assert not out.exists()


class TestLandscape:
    """The quotient landscape over one piece's grid, as `norm`'s sweep builds
    and searches it."""

    def test_row_count_and_bound(self):
        import numpy as np

        xs = np.linspace(*piece_bounds(1, 8.0), 64)
        fv = xs * np.sin(1.0 / xs)
        with np.errstate(all="ignore"):  # only the pairs x < y are finite
            q = opt._quotients(xs[:, None], fv[:, None], xs[None, :], fv[None, :], 0.5)
        assert q.shape == (64, 64)
        upper = q[np.triu_indices(64, 1)]
        assert upper.size == 64 * 63 // 2 and np.isfinite(upper).all()
        assert (upper <= math.sqrt(2.0) + 1e-9).all()
        # the sweep's winner is the landscape's largest entry
        x, y = opt._grid_sweep([piece_bounds(1, 8.0)], 64, 0.5)[0]
        assert q[xs.tolist().index(x), xs.tolist().index(y)] == upper.max()

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["norm", "--n", "1", "--resolution", "64", "--out", str(a)]) == 0
        assert main(["norm", "--n", "1", "--resolution", "64", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n, resolution", [(0, 64), (3, 64), (1, 7), (200, 100)])
    def test_grid_is_linspace(self, monkeypatch, n, resolution):
        import numpy as np

        grids, leaf_tiles = [], opt._leaf_tiles

        def spy(xs, fv, points, alpha_exp):
            grids.append(xs.copy())
            return leaf_tiles(xs, fv, points, alpha_exp)

        monkeypatch.setattr(opt, "_leaf_tiles", spy)
        lo, hi = piece_bounds(n, 8.0)
        opt._grid_sweep([(lo, hi)], resolution, 0.5)
        (xs,) = grids
        assert xs[0, :resolution].tolist() == np.linspace(lo, hi, resolution).tolist()
        assert (xs[0, resolution:] == hi).all()  # padded to whole tiles with the last point

    def test_smallest_grid(self):
        # two points make one pair: the piece's ends
        assert opt._grid_sweep([piece_bounds(0, 0.3)], 2, 0.5) == [piece_bounds(0, 0.3)]


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that has imported nothing of the package."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)


class TestImports:
    """numpy loads only in norm, the one command that computes with arrays."""

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
            (["landscape"], 2),  # the removed command: argparse rejects it
            (["roots", "--n", "3", "--out", "/dev/null"], 0),
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

    def test_package_import_loads_no_submodule(self):
        # the package root holds only the version: each module loads where it is used
        proc = _fresh(
            "import sys, holdercert\n"
            "sys.exit(sorted(k for k in sys.modules if k.startswith('holdercert.')) or 0)"
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("module", ["holdercert", "holdercert.cli"])
    def test_no_dataclasses_or_fractions(self, module):
        # records are named tuples and decimal thresholds are integer ratios
        proc = _fresh(
            f"import sys\nimport {module}\n"
            "sys.exit(sorted({'dataclasses', 'fractions', 'decimal'} & set(sys.modules)) or 0)"
        )
        assert proc.returncode == 0, proc.stderr

    def test_verify_and_constants_load_no_numpy(self):
        # the quadrature oracle behind L1.6 and i_quad is pure Python
        proc = _fresh(
            "import sys\nfrom holdercert.cli import main\n"
            "assert main(['verify', '--n-max', '20', '--out', '/dev/null']) == 0\n"
            "assert main(['constants', '--n', '3']) == 0\n"
            "sys.exit('numpy loaded' if 'numpy' in sys.modules else 0)"
        )
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 4  # the constants header and rows 1 to 3

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


class TestRecords:
    """The six result records keep their field order and cannot be changed."""

    FIELDS = {
        CheckResult: ("check_id", "anchor", "verdict", "margin"),
        RootCertificate: ("n", "bracket", "alpha", "theta", "residual"),
        ConstantsRow: ("n", "alpha_n", "alpha_np1", "delta", "i_closed", "i_quad", "g", "correction", "c"),
        QuotientRecord: ("n", "x", "y", "q"),
        SupremumReport: (
            "sup_estimate", "arg", "per_interval", "method_breakdown", "bound_certificate", "tail_checks", "alpha_exp"
        ),
        VerificationReport: ("tool_version", "config", "checks", "constants_table"),
    }

    @pytest.fixture(scope="class")
    def records(self, small_report):
        sup = global_sup(2, 8.0, 64)
        return [small_report.checks[0], find_alpha(1), small_report.constants_table[0], sup.arg, sup, small_report]

    def test_field_order(self, records):
        assert [type(r) for r in records] == list(self.FIELDS)
        for r in records:
            assert type(r)._fields == self.FIELDS[type(r)]

    def test_fields_cannot_be_assigned(self, records):
        for r in records:
            for name in r._fields:
                with pytest.raises(AttributeError):
                    setattr(r, name, getattr(r, name))
