"""End-to-end tests of the command-line interface via main(argv)."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qcorr import cli
from qcorr.cli import main
from qcorr.decoherence import ChannelSpec, trajectory
from qcorr.states import bd_matrix, state_to_dict

T_STAR = 0.25541281188299536
GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


def run(argv):
    return main(argv)


class TestAnalyze:
    def test_known_state_json(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["analyze", "--bd", "0.6,-0.6,0.6", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mutual_info"] == pytest.approx(0.6432203505529606, abs=1e-9)
        assert report["classical"] == pytest.approx(0.2780719051126377, abs=1e-9)
        assert report["discord"] == pytest.approx(0.3651484454403229, abs=1e-9)
        assert report["d_a"] == pytest.approx(0.4872792206135785, abs=1e-9)
        assert report["optimal_axis"] == 1
        np.testing.assert_allclose(report["eigenvalues"], [0.1, 0.1, 0.7, 0.1], atol=1e-12)

    def test_zero_state(self, tmp_path):
        out = tmp_path / "zero.json"
        assert run(["analyze", "--bd", "0,0,0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for key in ("mutual_info", "classical", "discord", "d_a"):
            assert report[key] == pytest.approx(0.0, abs=1e-12)

    def test_invalid_state_exits_1(self, capsys):
        assert run(["analyze", "--bd", "1,1,1"]) == 1
        assert "NotPSD" in capsys.readouterr().err

    def test_non_finite_value_is_not_written_as_json(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "d_a_optimized", lambda c: float("nan"))
        assert run(["analyze", "--bd", "0.6,-0.6,0.6"]) == 1
        assert capsys.readouterr().out == ""

    def test_malformed_triple_exits_1(self):
        assert run(["analyze", "--bd", "0.6,x,0"]) == 1
        assert run(["analyze", "--bd", "0.6,0.6"]) == 1

    def test_missing_command_exits_1(self):
        assert run([]) == 1
        assert run(["bogus"]) == 1

    def test_dense_file_detected_as_bd(self, tmp_path):
        src = tmp_path / "state.json"
        src.write_text(json.dumps(state_to_dict(bd_matrix([0.7, -0.5, 0.3]))))
        out = tmp_path / "report.json"
        assert run(["analyze", "--state", str(src), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["optimal_axis"] == 1
        assert report["c"] == pytest.approx([0.7, -0.5, 0.3], abs=1e-10)

    def test_dense_non_bd_state(self, tmp_path):
        """A pure entangled state has J = D = S(rho_A)."""
        phi = 0.5
        v = np.zeros(4)
        v[0], v[3] = np.cos(phi), np.sin(phi)
        src = tmp_path / "pure.json"
        src.write_text(json.dumps(state_to_dict(np.outer(v, v))))
        out = tmp_path / "report.json"
        assert run(["analyze", "--state", str(src), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        lam = np.array([np.cos(phi) ** 2, np.sin(phi) ** 2])
        s_a = float(-(lam @ np.log2(lam)))
        assert report["classical"] == pytest.approx(s_a, abs=1e-7)
        assert report["discord"] == pytest.approx(s_a, abs=1e-7)
        assert report["optimal_axis"] is None

    @pytest.mark.parametrize("entry, value", [((0, 1), float("nan")), ((0, 0), float("inf"))])
    def test_non_finite_state_file_exits_1(self, tmp_path, capsys, entry, value):
        """A NaN off-diagonal escaped main() as a RuntimeError traceback."""
        state = state_to_dict(bd_matrix([0.3, -0.2, 0.1]))
        state["re"][entry[0]][entry[1]] = value
        src = tmp_path / "state.json"
        src.write_text(json.dumps(state))
        assert run(["analyze", "--state", str(src)]) == 1
        assert "error: NotFiniteError:" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert run(["analyze", "--state", str(tmp_path / "nope.json")]) == 1


class TestEvolve:
    def test_csv_shape_and_header(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run(["evolve", "--bd", "1,-0.6,0.6", "--k", "3", "--gamma", "1",
                    "--t-max", "1", "--steps", "11", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,c1,c2,c3,I,J,D,dA,axis,T11,T22,T33"
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[6]) == pytest.approx(0.2780719051126377, abs=1e-8)
        assert float(first[5]) == pytest.approx(1.0, abs=1e-8)

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["evolve", "--bd", "0.6,-0.6,0.6", "--t-max", "0.5", "--steps", "6"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_sidecar_freezing(self, tmp_path):
        out = tmp_path / "traj.csv"
        run(["evolve", "--bd", "1,-0.6,0.6", "--steps", "3", "--out", str(out)])
        meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert meta["freezing"] is True
        assert meta["t_star"] == pytest.approx(T_STAR, abs=1e-12)

    def test_sidecar_not_freezing(self, tmp_path):
        out = tmp_path / "traj.csv"
        run(["evolve", "--bd", "0.6,-0.6,0.6", "--steps", "3", "--out", str(out)])
        meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert meta["freezing"] is False
        assert "t_star" not in meta

    def test_zero_time_matches_analyze(self, tmp_path):
        traj = tmp_path / "traj.csv"
        single = tmp_path / "single.csv"
        assert run(["evolve", "--bd", "0.3,-0.4,0.5", "--t-max", "0", "--steps", "1",
                    "--out", str(traj)]) == 0
        assert run(["analyze", "--bd", "0.3,-0.4,0.5", "--format", "csv",
                    "--out", str(single)]) == 0
        assert traj.read_bytes() == single.read_bytes()

    def test_csv_rows_match_points(self, tmp_path):
        """2049 rows cross two chunk boundaries; each row spells its point's fields as format(x, ".9g")."""
        out = tmp_path / "traj.csv"
        assert run(["evolve", "--bd", "1,-0.6,0.6", "--k", "3", "--t-max", "1", "--steps", "2049",
                    "--out", str(out)]) == 0
        points = trajectory([1.0, -0.6, 0.6], ChannelSpec(k=3, gamma=1.0), np.linspace(0.0, 1.0, 2049))
        assert any(np.signbit(pt.t_matrix_after).any() for pt in points)

        def cell(x):
            return format(0.0 if x == 0 else float(x), ".9g")

        lines = [cli.CSV_HEADER]
        for pt in points:
            rep = pt.report
            cells = [cell(x) for x in (pt.t, *pt.c.coeffs, rep.mutual_info, rep.classical, rep.discord, pt.d_a)]
            cells.append(str(pt.optimal_axis))
            cells.extend(cell(x) for x in pt.t_matrix_after.diagonal())
            lines.append(",".join(cells))
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_reference_trajectories_match_golden_digests(self, tmp_path):
        golden = json.loads(GOLDEN.read_text())
        out = tmp_path / "traj.csv"
        for label, digests in golden["cases"].items():
            bd, k = label.split(" k=")
            assert run(["evolve", f"--bd={bd}", "--k", k, "--gamma", repr(golden["gamma"]),
                        "--t-max", repr(golden["t_max"]), "--steps", str(golden["steps"]),
                        "--out", str(out)]) == 0
            got = {"csv": hashlib.sha256(out.read_bytes()).hexdigest(),
                   "meta": hashlib.sha256((tmp_path / "traj.csv.meta.json").read_bytes()).hexdigest()}
            assert got == digests, label

    def test_invalid_initial_state(self):
        assert run(["evolve", "--bd", "1,1,1"]) == 1

    def test_bad_grid_flags(self):
        assert run(["evolve", "--bd", "0.5,0,0", "--steps", "0"]) == 1
        assert run(["evolve", "--bd", "0.5,0,0", "--t-max", "-1"]) == 1

    def test_non_finite_t_max_exits_1(self, tmp_path):
        out = tmp_path / "traj.csv"
        for value in ("nan", "inf"):
            assert run(["evolve", "--bd", "0.5,0,0", "--t-max", value, "--out", str(out)]) == 1
        assert not out.exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "traj.json"
        assert run(["evolve", "--bd", "1,-0.6,0.6", "--steps", "4", "--format", "json",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["t_star"] == pytest.approx(T_STAR, abs=1e-12)
        assert len(payload["points"]) == 4
        traj = trajectory([1.0, -0.6, 0.6], ChannelSpec(k=3, gamma=1.0), np.linspace(0.0, 1.0, 4))
        want = [dict(pt.report.to_dict(), t=pt.t, c=pt.c.coeffs.tolist(), d_a=pt.d_a,
                     t_after_measurement=pt.t_matrix_after.tolist()) for pt in traj]
        assert payload["points"] == want
        assert [list(point) for point in payload["points"]] == [list(point) for point in want]


class TestOracle:
    def test_small_run_passes(self, capsys):
        assert run(["oracle", "--n", "5", "--seed", "7"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_single_zero_state(self, tmp_path):
        out = tmp_path / "gaps.json"
        assert run(["oracle", "--n", "1", "--bd", "0,0,0", "--out", str(out)]) == 0
        gaps = json.loads(out.read_text())["gaps"]
        assert all(v <= 1e-12 for v in gaps.values())

    def test_injected_bug_exits_2(self, capsys, monkeypatch):
        numeric = cli.classical_correlations_numeric

        def off_by_1e_3(rho, config=None):
            value, s = numeric(rho, config)
            return value + 1e-3, s

        monkeypatch.setattr(cli, "classical_correlations_numeric", off_by_1e_3)
        assert run(["oracle", "--n", "2"]) == 2
        assert "worst state" in capsys.readouterr().out

    def test_bad_tol_exits_1(self, capsys):
        """NaN printed FAIL yet exited 0; a negative tolerance crashed on the worst state."""
        for tol in ("nan", "inf", "-1"):
            assert run(["oracle", "--n", "1", "--bd", "0,0,0", "--tol", tol]) == 1
            captured = capsys.readouterr()
            assert "--tol" in captured.err
            assert "FAIL" not in captured.out

    def test_bad_n(self):
        assert run(["oracle", "--n", "0"]) == 1
