import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bimatrix import make_antilinear, make_normal, system_from_json, system_to_json
from bimatrix.cli import main
from bimatrix.core import bimatrix_to_json, cmatrix_to_json

from helpers import rand_system


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _example_system_file(path):
    a1 = np.array([[0.0, 1.0], [-5.0, -4.0]])
    b1 = np.array([[0.0], [1.0]])
    sysm = make_normal(a1, b1, np.eye(2), domain="continuous")
    return _write_json(path, system_to_json(sysm))


def _conjugate_integrator_file(path):
    # xdot = conj(u)
    sysm = make_antilinear([[0.0]], [[1.0]], domain="continuous")
    return _write_json(path, system_to_json(sysm))


def _run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_companion_system_report(self, workdir, capsys):
        path = _example_system_file(workdir / "sys.json")
        code, out, err = _run(["analyze", path], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["verb"] == "analyze"
        assert report["results"]["controllable"] is True
        assert report["results"]["stable"] is True
        assert report["system"] == {
            "n": 2, "m": 1, "p": 2, "domain": "continuous",
        }
        assert "margins" in report["diagnostics"]

    def test_report_written_to_file(self, workdir, capsys):
        path = _example_system_file(workdir / "sys.json")
        out_path = workdir / "report.json"
        code, out, _ = _run(["analyze", path, "--out", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert report["verb"] == "analyze"

    def test_deterministic_apart_from_timestamp(self, workdir, capsys):
        path = _example_system_file(workdir / "sys.json")
        _, out1, _ = _run(["analyze", path], capsys)
        _, out2, _ = _run(["analyze", path], capsys)
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timestamp"), r2.pop("timestamp")
        assert r1 == r2


class TestPlace:
    def test_full_spectrum_inline(self, workdir, capsys):
        path = _example_system_file(workdir / "sys.json")
        spectrum = json.dumps([[-1.0, 0.0], [-1.0, 0.0], [-2.0, 0.0], [-2.0, 0.0]])
        code, out, err = _run(["place", path, "--spectrum", spectrum], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["diagnostics"]["spectrum_deviation"] <= 1e-6
        got = {tuple(np.round(v, 6)) for v in report["results"]["achieved_spectrum"]}
        assert got == {(-1.0, 0.0), (-2.0, 0.0)}

    def test_conjugates_are_auto_completed(self, workdir, capsys):
        path = _example_system_file(workdir / "sys.json")
        # two of four values given; each non-real value implies its partner
        spectrum = json.dumps([[-1.0, 1.0], [-2.0, 0.5]])
        code, out, err = _run(["place", path, "--spectrum", spectrum], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert len(report["results"]["requested_spectrum"]) == 4

    def test_wrong_count_is_input_error(self, workdir, capsys):
        path = _example_system_file(workdir / "sys.json")
        code, _, err = _run(["place", path, "--spectrum", "[[-1.0, 0.0]]"], capsys)
        assert code == 1
        assert "spectrum" in err

    def test_uncontrollable_is_infeasible(self, workdir, capsys):
        obj = {
            "domain": "discrete",
            "n": 1, "m": 1, "p": 1,
            "A1": cmatrix_to_json(np.array([[2.0]])),
            "C1": cmatrix_to_json(np.array([[1.0]])),
        }
        path = _write_json(workdir / "sys.json", obj)
        spectrum = json.dumps([[0.1, 0.0], [0.2, 0.0]])
        code, _, err = _run(["place", path, "--spectrum", spectrum], capsys)
        assert code == 2
        assert "infeasible" in err


class TestStabilizeVerb:
    def test_reports_stable_closed_loop(self, workdir, capsys):
        path = _conjugate_integrator_file(workdir / "sys.json")
        code, out, err = _run(["stabilize", path], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["results"]["closed_loop_stable"] is True


class TestLqrVerb:
    def test_conjugate_integrator_gains(self, workdir, capsys):
        path = _conjugate_integrator_file(workdir / "sys.json")
        code, out, err = _run(["lqr", path], capsys)
        assert code == 0, err
        report = json.loads(out)
        gain = report["results"]["gain"]
        k1 = np.array(gain["first"]["data"], dtype=float)
        k2 = np.array(gain["second"]["data"], dtype=float)
        assert np.allclose(k1, [[0.0, 0.0]], atol=1e-8)
        assert np.allclose(k2, [[-1.0, 0.0]], atol=1e-8)
        assert report["diagnostics"]["are_residual"] <= 1e-8

    def test_explicit_weight_files(self, workdir, capsys):
        path = _conjugate_integrator_file(workdir / "sys.json")
        q = _write_json(
            workdir / "q.json",
            bimatrix_to_json(make_normal([[4.0]], [[1.0]], [[1.0]],
                                         domain="continuous").a),
        )
        r = _write_json(
            workdir / "r.json",
            bimatrix_to_json(make_normal([[1.0]], [[1.0]], [[1.0]],
                                         domain="continuous").a),
        )
        code, out, err = _run(["lqr", path, "--q", q, "--r", r], capsys)
        assert code == 0, err
        report = json.loads(out)
        k2 = np.array(report["results"]["gain"]["second"]["data"], dtype=float)
        # scalar balance with q = 4: p = 2, gain = -2
        assert np.allclose(k2, [[-2.0, 0.0]], atol=1e-7)


class TestObserverVerb:
    def test_error_spectrum_reported(self, workdir, capsys):
        path = _example_system_file(workdir / "sys.json")
        spectrum = json.dumps([[-2.0, 0.0], [-3.0, 0.0], [-4.0, 0.0], [-5.0, 0.0]])
        code, out, err = _run(["observer", path, "--spectrum", spectrum], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["diagnostics"]["spectrum_deviation"] <= 1e-6


class TestSimulateVerb:
    def test_closed_loop_trace_decays(self, workdir, capsys):
        sys_path = _conjugate_integrator_file(workdir / "sys.json")
        code, out, err = _run(["lqr", sys_path, "--out", str(workdir / "lqr.json")],
                              capsys)
        assert code == 0, err
        gain = json.loads((workdir / "lqr.json").read_text())["results"]["gain"]
        gain_path = _write_json(workdir / "gain.json", gain)
        code, out, err = _run(
            [
                "simulate", sys_path, "--gain", gain_path,
                "--x0", "[[1.0, 0.5]]", "--horizon", "8", "--dt", "0.05",
                "--trace", str(workdir / "run.csv"),
            ],
            capsys,
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["results"]["final_state_norm"] <= 1e-3
        lines = (workdir / "run.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x1_re,x1_im,u1_re,u1_im,y1_re,y1_im"
        assert len(lines) == 162  # header + 161 samples

    def test_observer_trace_has_estimate_columns(self, workdir, capsys):
        sys_path = _example_system_file(workdir / "sys.json")
        spectrum = json.dumps([[-2.0, 0.0], [-3.0, 0.0], [-4.0, 0.0], [-5.0, 0.0]])
        code, out, err = _run(
            ["observer", sys_path, "--spectrum", spectrum,
             "--out", str(workdir / "obs.json")],
            capsys,
        )
        assert code == 0, err
        l_obj = json.loads((workdir / "obs.json").read_text())["results"]["observer_gain"]
        l_path = _write_json(workdir / "L.json", l_obj)
        code, out, err = _run(
            [
                "simulate", sys_path, "--observer", l_path,
                "--x0", "[[1.0, 0.0], [0.0, -1.0]]",
                "--horizon", "10", "--dt", "0.05",
                "--trace", str(workdir / "obs.csv"),
            ],
            capsys,
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["results"]["final_error_norm"] <= 1e-6
        header = (workdir / "obs.csv").read_text().splitlines()[0]
        # plant groups first, the observer estimate z last
        assert header == (
            "t,x1_re,x1_im,x2_re,x2_im,u1_re,u1_im,y1_re,y1_im,y2_re,y2_im,"
            "z1_re,z1_im,z2_re,z2_im"
        )

    def test_discrete_grid_needs_no_dt(self, workdir, capsys):
        sysm = make_antilinear([[0.5]], [[1.0]], domain="discrete")
        path = _write_json(workdir / "sys.json", system_to_json(sysm))
        code, out, err = _run(
            ["simulate", path, "--x0", "[[1.0, 0.0]]", "--horizon", "20",
             "--trace", str(workdir / "d.csv")],
            capsys,
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["results"]["samples"] == 21
        assert report["results"]["final_state_norm"] <= 0.5**20 * 1.001


    def _input_run(self, workdir, capsys, rows):
        # discrete plant with two inputs over a horizon of 3 (4 samples)
        sysm = make_normal([[0.5]], [[1.0, 2.0]], [[1.0]], domain="discrete")
        path = _write_json(workdir / "sys.json", system_to_json(sysm))
        u_path = _write_json(workdir / "u.json", rows)
        return _run(
            ["simulate", path, "--x0", "[[1.0, 0.0]]", "--horizon", "3",
             "--u", u_path, "--trace", str(workdir / "u.csv")],
            capsys,
        )

    def test_input_file_drives_the_trace(self, workdir, capsys):
        rows = [[[k, 0.5], [-1.0, k / 4]] for k in range(4)]
        code, _, err = self._input_run(workdir, capsys, rows)
        assert code == 0, err
        lines = (workdir / "u.csv").read_text().splitlines()
        assert lines[0].split(",")[3:7] == ["u1_re", "u1_im", "u2_re", "u2_im"]
        got = [[float(v) for v in line.split(",")[3:7]] for line in lines[1:]]
        assert got == [[re for pair in row for re in pair] for row in rows]

    @pytest.mark.parametrize(
        "rows",
        [[[[0.0, 0.0], [0.0, 0.0]]] * 3, [[[0.0, 0.0]]] * 4],
        ids=["row_count", "width"],
    )
    def test_misshapen_input_file_is_exit_1(self, workdir, capsys, rows):
        code, out, err = self._input_run(workdir, capsys, rows)
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "input samples must have shape (4, 2)" in err


class TestConvertVerb:
    def test_real_system_is_folded(self, workdir, capsys, rng):
        a = rng.standard_normal((4, 4))
        obj = {
            "domain": "discrete",
            "A": cmatrix_to_json(a),
            "B": cmatrix_to_json(rng.standard_normal((4, 2))),
            "C": cmatrix_to_json(rng.standard_normal((2, 4))),
            "D": cmatrix_to_json(np.zeros((2, 2))),
        }
        path = _write_json(workdir / "real.json", obj)
        code, out, err = _run(["convert", path], capsys)
        assert code == 0, err
        report = json.loads(out)
        folded = system_from_json(report["results"]["system"])
        assert folded.n == 2 and folded.m == 1 and folded.p == 1
        assert np.allclose(folded.real_representation().a, a, atol=1e-12)


class TestErrorPaths:
    def test_malformed_json_is_exit_1(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        code, _, err = _run(["analyze", str(bad)], capsys)
        assert code == 1
        assert err

    def test_block_dimension_error_names_block(self, workdir, capsys):
        obj = {
            "domain": "discrete",
            "n": 2, "m": 1, "p": 1,
            "A1": cmatrix_to_json(np.eye(2)),
            "B1": cmatrix_to_json(np.eye(2)),
        }
        path = _write_json(workdir / "sys.json", obj)
        code, _, err = _run(["analyze", path], capsys)
        assert code == 1
        assert "B1" in err

    def test_missing_file_is_exit_1(self, workdir, capsys):
        code, _, err = _run(["analyze", str(workdir / "nope.json")], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "field, value, message",
        [("data", 5, "data must be a list"),
         ("data", [[None, 0.0]], "entry 0 holds a non-number"),
         ("rows", None, "rows and cols must be integers"),
         ("rows", [1], "rows and cols must be integers"),
         ("rows", 1.9, "rows and cols must be integers"),
         ("cols", True, "rows and cols must be integers"),
         ("cols", 0, "rows and cols must be integers")],
    )
    def test_malformed_matrix_block_is_exit_1(self, workdir, capsys, field, value, message):
        obj = system_to_json(make_normal([[0.5]], [[1.0]], [[1.0]], domain="discrete"))
        obj["A1"][field] = value
        path = _write_json(workdir / "sys.json", obj)
        code, _, err = _run(["analyze", path], capsys)
        assert code == 1
        assert "Traceback" not in err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize(
        "field, value",
        [("n", None), ("n", [1]), ("n", 1.7), ("m", True), ("p", 0)],
    )
    def test_malformed_dimension_field_is_exit_1(self, workdir, capsys, field, value):
        obj = system_to_json(make_normal([[0.5]], [[1.0]], [[1.0]], domain="discrete"))
        obj[field] = value
        path = _write_json(workdir / "sys.json", obj)
        code, _, err = _run(["analyze", path], capsys)
        assert code == 1
        assert "Traceback" not in err
        assert err.count("\n") == 1 and f'"{field}" must be a positive integer' in err

    @pytest.mark.parametrize(
        "domain, grid",
        [("continuous", ["--horizon", "1e9", "--dt", "1"]),
         ("continuous", ["--horizon", "inf", "--dt", "1"]),
         ("discrete", ["--horizon", "3e6"])],
    )
    def test_oversized_simulation_grid_is_exit_1(
        self, workdir, capsys, monkeypatch, domain, grid
    ):
        arange = np.arange

        def bounded_arange(*args, **kwargs):
            assert args[0] <= 2_000_001, "unbounded time grid allocated"
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", bounded_arange)
        sysm = make_normal([[0.5]], [[1.0]], [[1.0]], domain=domain)
        path = _write_json(workdir / "sys.json", system_to_json(sysm))
        code, _, err = _run(["simulate", path, "--x0", "[[1.0, 0.0]]", *grid], capsys)
        assert code == 1
        assert "2e+06 steps" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "convert, fold, message",
        [(False, False, "norm overflows"), (True, False, "norm overflows"),
         (True, True, "non-finite entries")],
    )
    def test_overflowing_norm_is_exit_1(self, workdir, capsys, convert, fold, message):
        # every entry is finite, but the Frobenius norm is 2e308; with fold set,
        # folding the real system into pair form overflows as well
        big = 1e308 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        if convert:
            a = np.zeros((4, 4))
            a[:2, :2] = big
            if fold:
                a[2:, 2:] = big
            real = {"A": a, "B": np.eye(4, 2), "C": np.eye(2, 4), "D": np.zeros((2, 2))}
            obj = {"convert": True, "domain": "continuous",
                   "real_system": {k: cmatrix_to_json(v) for k, v in real.items()}}
        else:
            obj = system_to_json(
                make_normal(big, [[1.0], [0.0]], [[1.0, 0.0]], domain="continuous")
            )
        path = _write_json(workdir / "sys.json", obj)
        code, out, err = _run(["analyze", path], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("value", ["1.5", True, "nan"])
    @pytest.mark.parametrize("where", ["matrix", "spectrum", "x0"])
    def test_non_number_entry_is_exit_1(self, workdir, capsys, where, value):
        sysm = make_normal([[0.5]], [[1.0]], [[1.0]], domain="discrete")
        obj = system_to_json(sysm)
        entries = [[-0.5, 0.0], [-0.25, value]]
        if where == "matrix":
            obj["A1"]["data"] = [[0.5, value]]
            argv = ["analyze"]
        elif where == "spectrum":
            argv = ["place", "--spectrum", _write_json(workdir / "gamma.json", entries)]
        else:
            argv = ["simulate", "--horizon", "5",
                    "--x0", _write_json(workdir / "x0.json", entries[1:])]
        path = _write_json(workdir / "sys.json", obj)
        code, out, err = _run([argv[0], path, *argv[1:]], capsys)
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "holds a non-number" in err


_SCIPY_PROBE = """
import sys
from bimatrix.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"), file=sys.stderr)
"""


class TestScipyLoadedOnlyWhereCalled:
    """Each case runs in a fresh interpreter: this one already has SciPy loaded."""

    @staticmethod
    def _scipy_modules(workdir, argv):
        """SciPy modules loaded after ``main(argv)``, or after the import alone."""
        import bimatrix

        src = os.path.dirname(os.path.dirname(bimatrix.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, *argv], cwd=workdir,
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        code, loaded = proc.stderr.strip().splitlines()[-1].split(" ", 1)
        assert proc.returncode == 0 and code == "0", proc.stderr
        return loaded

    def test_import_leaves_scipy_unloaded(self, workdir):
        assert self._scipy_modules(workdir, []) == "[]"

    @pytest.mark.parametrize("verb", ["analyze", "convert", "place", "observer", "simulate"])
    def test_verb_leaves_scipy_unloaded(self, workdir, rng, verb):
        if verb == "convert":
            real = {"A": rng.standard_normal((4, 4)), "B": rng.standard_normal((4, 2)),
                    "C": rng.standard_normal((2, 4)), "D": np.zeros((2, 2))}
            obj = {"domain": "discrete", **{k: cmatrix_to_json(v) for k, v in real.items()}}
            path = _write_json(workdir / "real.json", obj)
        else:
            domain = "discrete" if verb == "simulate" else "continuous"
            sysm = make_normal([[0.0, 1.0], [-5.0, -4.0]], [[0.0], [1.0]], np.eye(2),
                               domain=domain)
            path = _write_json(workdir / "sys.json", system_to_json(sysm))
        extra = {
            "place": ["--spectrum", "[[-1.0, 1.0], [-2.0, 0.5]]"],
            "observer": ["--spectrum", "[[-2.0, 0.0], [-3.0, 0.0], [-4.0, 0.0], [-5.0, 0.0]]"],
            "simulate": ["--x0", "[[1.0, 0.5], [0.0, 0.0]]", "--horizon", "20"],
        }.get(verb, [])
        argv = [verb, path, *extra, "--out", "report.json"]
        assert self._scipy_modules(workdir, argv) == "[]"

    def test_lqr_loads_scipy(self, workdir):
        # the probe's positive control: lqr calls SciPy's Riccati solvers
        path = _example_system_file(workdir / "sys.json")
        argv = ["lqr", path, "--out", "report.json"]
        assert "scipy.linalg" in self._scipy_modules(workdir, argv)


class TestSeedHandling:
    def test_env_seed_changes_nothing_functional_but_is_honored(
        self, workdir, capsys, monkeypatch
    ):
        path = _example_system_file(workdir / "sys.json")
        spectrum = json.dumps([[-1.0, 0.0], [-1.0, 0.0], [-2.0, 0.0], [-2.0, 0.0]])
        monkeypatch.setenv("BIMATRIX_SEED", "7")
        _, out_env, _ = _run(["place", path, "--spectrum", spectrum], capsys)
        monkeypatch.delenv("BIMATRIX_SEED")
        _, out_flag, _ = _run(["place", path, "--spectrum", spectrum, "--seed", "7"],
                              capsys)
        r1, r2 = json.loads(out_env), json.loads(out_flag)
        r1.pop("timestamp"), r2.pop("timestamp")
        assert r1 == r2

    def test_round_trip_system_file(self, workdir, rng):
        sysm = rand_system(rng, 2, 1, 1, "discrete")
        path = _write_json(workdir / "sys.json", system_to_json(sysm))
        parsed = system_from_json(json.loads((workdir / "sys.json").read_text()))
        assert parsed.a.allclose(sysm.a)
        assert parsed.domain is sysm.domain
