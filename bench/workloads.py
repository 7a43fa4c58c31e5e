"""The three benchmark workloads.

Each workload makes its inputs from the benchmark seed, runs one program
call per item, and checks that item's output.  ``prepare(i)`` builds the
input of item i outside the timed region, ``run(i)`` is the timed program
call, and ``check(i, out)`` returns None for a correct output or a message
saying what is wrong.  The checks use references computed here with numpy,
not the program's own routines, except where a check compares two of the
program's routes with each other.

The program keeps its default search seed (42); the benchmark seed only
picks the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from qcorr import cli, correlations, ncm, states

# Closed-vs-numeric tolerance of the acceptance tests (tests/test_acceptance.py).
GAP_TOL = 1e-5
# Slack on one-sided inequalities that hold exactly in exact arithmetic.
ORDER_TOL = 1e-12
# The CSV holds nine significant digits, so a printed value is within 5e-9
# of the true one, relatively.
DIGITS_TOL = 1e-8

SQRT8 = math.sqrt(8.0)
I2 = np.eye(2, dtype=complex)
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class _Pool:
    """Bell-diagonal coefficients from `sample_bd`, drawn lazily from one seeded stream.

    Draws come in fixed chunks, so item j gets the same state for a given
    seed however long the run is, and the run holds only the states it uses.
    """

    CHUNK = 32

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.coeffs = []

    def __getitem__(self, j: int) -> np.ndarray:
        while j >= len(self.coeffs):
            self.coeffs += [bd.coeffs for bd in states.sample_bd(self.CHUNK, self.rng)]
        return self.coeffs[j]


def _entropy(lam) -> float:
    lam = np.clip(np.asarray(lam, dtype=float), 0.0, None)
    lam = lam[lam > 0]
    return float(-np.sum(lam * np.log2(lam)))


def _h2(p: float) -> float:
    return _entropy([p, 1.0 - p])


def _bd_closed(c) -> dict:
    """I, J, D and min d_A of a Bell-diagonal state, from the paper's closed forms."""
    c1, c2, c3 = (float(x) for x in c)
    lam = [(1 - c1 - c2 - c3) / 4, (1 - c1 + c2 + c3) / 4,
           (1 + c1 - c2 + c3) / 4, (1 + c1 + c2 - c3) / 4]
    mi = 2.0 - _entropy(lam)
    j = 1.0 - _h2((1.0 + max(abs(c1), abs(c2), abs(c3))) / 2.0)
    d_a = min(
        abs(c1 * c2) + 2.0 * math.hypot(c2 * c3, c1 * c3),
        abs(c2 * c3) + 2.0 * math.hypot(c1 * c2, c1 * c3),
        abs(c1 * c3) + 2.0 * math.hypot(c1 * c2, c2 * c3),
    ) / SQRT8
    return {"I": mi, "J": j, "D": mi - j, "dA": d_a}


def _bd_density(c) -> np.ndarray:
    rho = np.eye(4, dtype=complex)
    for ci, sigma in zip(c, PAULIS):
        rho += ci * np.kron(sigma, sigma)
    return rho / 4


def _haar_unitary(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _dense_references(rho) -> dict:
    """I and J at each coordinate-axis measurement on A, by numpy eigvalsh."""
    r = rho.reshape(2, 2, 2, 2)
    rho_a = np.einsum("abcb->ac", r)
    rho_b = np.einsum("abad->bd", r)
    s_b = _entropy(np.linalg.eigvalsh(rho_b))
    mi = _entropy(np.linalg.eigvalsh(rho_a)) + s_b - _entropy(np.linalg.eigvalsh(rho))
    j_axis = []
    for sigma in PAULIS:
        conditional = 0.0
        for sign in (1.0, -1.0):
            m = (I2 + sign * sigma) / 2
            sub = np.einsum("ax,xbad->bd", m, r)  # Tr_A[(M x I) rho]
            p = float(np.trace(sub).real)
            conditional += p * _entropy(np.linalg.eigvalsh(sub / p))
        j_axis.append(s_b - conditional)
    return {"I": mi, "J_axis": j_axis}


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite number {name} in JSON output")
    return json.loads(text, parse_constant=reject)


class _Worst:
    """Largest gap seen per route, with the input that produced it."""

    def __init__(self, routes):
        self.gaps = {route: {"gap": 0.0, "input": None} for route in routes}

    def update(self, route, gap, describe):
        if not gap <= self.gaps[route]["gap"]:
            self.gaps[route] = {"gap": float(gap), "input": describe}


class OracleBD:
    """Every route `qcorr oracle` checks, on seeded Bell-diagonal states."""

    name = "oracle-bd"

    def __init__(self, seed: int, workdir: Path):
        self.coeffs = _Pool(seed)
        self.worst = _Worst(("J", "D", "dA", "D_route"))
        self.bytes_out = 0

    def _c(self, i):
        return self.coeffs[i]

    def describe(self, i):
        return {"c": [float(x) for x in self._c(i)]}

    def prepare(self, i):
        pass

    def units(self, i) -> int:
        return 1

    def run(self, i):
        c = self._c(i)
        rho = states.bd_matrix(c)
        j_closed, _ = correlations.classical_correlations_bd(c)
        j_numeric, _ = correlations.classical_correlations_numeric(rho)
        i_val = correlations.mutual_information_bd(c)
        d_closed = correlations.discord(c, method="closed_bd")
        d_route = correlations.discord(rho, method="via_mi")
        da_closed = ncm.d_a_optimized(c)
        da_numeric, _ = ncm.d_a_numeric(c)
        return {
            "J": abs(j_closed - j_numeric),
            "D": abs(d_closed - (i_val - j_numeric)),
            "dA": abs(da_closed - da_numeric),
            "D_route": abs(d_closed - d_route),
        }

    def check(self, i, gaps):
        for route, gap in gaps.items():
            self.worst.update(route, gap, self.describe(i))
        bad = [f"{route} gap {gap:.3e}" for route, gap in gaps.items() if not gap <= GAP_TOL]
        return f"closed vs numeric beyond {GAP_TOL:g}: " + ", ".join(bad) if bad else None

    def diagnostics(self):
        return {"max_gap": self.worst.gaps}


class DenseAnalyze:
    """`qcorr analyze --state` in-process on seeded non-Bell-diagonal states.

    Even items are Bell-diagonal states rotated by local unitaries, which
    must reproduce the unrotated closed forms; odd items are full-rank
    Ginibre states, held to one-sided bounds.
    """

    name = "dense-analyze"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.coeffs = _Pool(seed)
        self.inputs = {}
        self.worst = _Worst(("I", "J", "D", "dA"))
        self.bytes_out = 0

    def prepare(self, i):
        if i in self.inputs:
            return
        rng = np.random.default_rng([self.seed, i])
        if i % 2 == 0:
            c = self.coeffs[i // 2]
            u = np.kron(_haar_unitary(rng), _haar_unitary(rng))
            rho = u @ _bd_density(c) @ u.conj().T
            rho = (rho + rho.conj().T) / 2
            entry = {"kind": "rotated-bd", "c": [float(x) for x in c], "expect": _bd_closed(c)}
        else:
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T
            rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
            entry = {"kind": "ginibre", "expect": _dense_references(rho)}
        entry["rng_seed"] = [self.seed, i]
        path = self.workdir / f"state-{i}.json"
        path.write_text(json.dumps({"kind": "dense", "re": rho.real.tolist(), "im": rho.imag.tolist()}))
        entry["path"] = str(path)
        self.inputs[i] = entry

    def describe(self, i):
        entry = self.inputs[i]
        return {key: entry[key] for key in ("kind", "c", "rng_seed") if key in entry}

    def units(self, i) -> int:
        return 1

    def run(self, i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["analyze", "--state", self.inputs[i]["path"]])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, i, out):
        self.bytes_out += len(out["stdout"].encode())
        if out["code"] != 0:
            return f"exit code {out['code']}: {out['stderr'].strip()}"
        payload = _strict_json(out["stdout"])
        mi, j, d, d_a = (float(payload[k]) for k in ("mutual_info", "classical", "discord", "d_a"))
        entry = self.inputs[i]
        expect = entry["expect"]
        if entry["kind"] == "rotated-bd":
            gaps = {"I": abs(mi - expect["I"]), "J": abs(j - expect["J"]),
                    "D": abs(d - expect["D"]), "dA": abs(d_a - expect["dA"])}
            for route, gap in gaps.items():
                self.worst.update(route, gap, self.describe(i))
            bad = [f"{route} gap {gap:.3e}" for route, gap in gaps.items() if not gap <= GAP_TOL]
            return f"rotated state vs closed forms beyond {GAP_TOL:g}: " + ", ".join(bad) if bad else None
        problems = []
        if not abs(mi - expect["I"]) <= 1e-9:
            problems.append(f"I = {mi!r}, eigvalsh gives {expect['I']!r}")
        if not (0.0 <= j <= mi + ORDER_TOL):
            problems.append(f"J = {j!r} outside [0, I = {mi!r}]")
        if not d >= -ORDER_TOL:
            problems.append(f"D = {d!r} < 0")
        for axis, j_axis in enumerate(expect["J_axis"], start=1):
            if not j >= j_axis - ORDER_TOL:
                problems.append(f"J = {j!r} below its axis-{axis} value {j_axis!r}")
        if not (math.isfinite(d_a) and d_a >= 0.0):
            problems.append(f"dA = {d_a!r}")
        return "; ".join(problems) or None

    def diagnostics(self):
        return {"max_gap_rotated_bd": self.worst.gaps}


GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())
REFERENCE_STATES = ("0.6,-0.6,0.6", "1,-0.6,0.6")


class EvolveLong:
    """`qcorr evolve --steps 10001` in-process, one trajectory per item.

    Items cycle through k = 1, 2, 3.  The first six are the reference
    trajectories whose CSV and sidecar bytes must match golden.json; the
    rest start from seeded Bell-diagonal states.
    """

    name = "evolve-long"
    steps = GOLDEN["steps"]
    gamma = GOLDEN["gamma"]
    t_max = GOLDEN["t_max"]

    def __init__(self, seed: int, workdir: Path):
        self.coeffs = _Pool(seed)
        self.csv = workdir / "traj.csv"
        self.meta = workdir / "traj.csv.meta.json"
        self.digests = {}
        self.bytes_out = 0

    def _case(self, i):
        k = i % 3 + 1
        n_ref = 3 * len(REFERENCE_STATES)
        if i < n_ref:
            return REFERENCE_STATES[i // 3], k
        c = self.coeffs[i - n_ref]
        return ",".join(repr(float(x)) for x in c), k

    def _argv(self, i):
        bd, k = self._case(i)
        return ["evolve", f"--bd={bd}", "--k", str(k), "--gamma", repr(self.gamma),
                "--t-max", repr(self.t_max), "--steps", str(self.steps), "--out", str(self.csv)]

    def describe(self, i):
        return {"argv": self._argv(i)[:-2]}

    def prepare(self, i):
        pass

    def units(self, i) -> int:
        """Trajectory points, the unit of items_per_s on this workload."""
        return self.steps

    def run(self, i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self._argv(i))
        return {"code": code, "stderr": err.getvalue()}

    def check(self, i, out):
        if out["code"] != 0:
            return f"exit code {out['code']}: {out['stderr'].strip()}"
        csv_bytes = self.csv.read_bytes()
        meta_bytes = self.meta.read_bytes()
        self.bytes_out += len(csv_bytes) + len(meta_bytes)
        digest = {"csv": hashlib.sha256(csv_bytes).hexdigest(),
                  "meta": hashlib.sha256(meta_bytes).hexdigest()}
        bd, k = self._case(i)
        label = f"{bd} k={k}"
        golden = GOLDEN["cases"].get(label)
        if golden is not None and golden != digest:
            return f"bytes differ from the golden digests of {label}"
        if self.digests.setdefault(label, digest) != digest:
            return f"bytes differ from an earlier run of {label} in this process"
        return self._check_rows(bd, k, csv_bytes, meta_bytes)

    def _check_rows(self, bd, k, csv_bytes, meta_bytes):
        c0 = np.array([float(x) for x in bd.split(",")])
        meta = _strict_json(meta_bytes.decode())
        expect_meta = {"c0": c0.tolist(), "k": k, "gamma": self.gamma, "t_max": self.t_max, "steps": self.steps}
        if any(meta.get(key) != value for key, value in expect_meta.items()):
            return f"meta sidecar {meta} does not match the run {expect_meta}"
        # np.loadtxt parses straight into one float array, so the check holds
        # far less memory than the program's list of trajectory points.
        if not csv_bytes.endswith(b"\n"):
            return "CSV does not end with a newline"
        header = csv_bytes[:csv_bytes.index(b"\n")].decode("ascii")
        if header != cli.CSV_HEADER:
            return f"CSV header {header!r}"
        try:
            data = np.loadtxt(io.BytesIO(csv_bytes), delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            return f"CSV does not parse as rows of numbers: {exc}"
        if data.shape != (self.steps, 12):
            return f"CSV has {data.shape[0]} rows of {data.shape[1]} fields, expected {self.steps} of 12"
        if not np.all(np.isfinite(data)):
            return "non-finite value in CSV"
        t = np.linspace(0.0, self.t_max, self.steps)
        c_ref = c0[None, :] * np.exp(-2.0 * self.gamma * t)[:, None]
        c_ref[:, k - 1] = c0[k - 1]
        t_bad = np.abs(data[:, 0] - t) > DIGITS_TOL * np.abs(t) + 1e-15
        c_bad = np.abs(data[:, 1:4] - c_ref) > DIGITS_TOL * np.abs(c_ref) + 1e-15
        mi, j, d = data[:, 4], data[:, 5], data[:, 6]
        split_bad = np.abs(mi - j - d) > DIGITS_TOL * (np.abs(mi) + np.abs(j) + np.abs(d)) + 1e-15
        for what, bad in (("t", t_bad), ("c(t)", c_bad.any(axis=1)), ("I - J - D", split_bad)):
            if bad.any():
                row = int(np.argmax(bad)) + 1
                line = csv_bytes.split(b"\n")[row].decode()
                return f"{what} off at row {row}: {line}"
        return None

    def diagnostics(self):
        return {"golden_cases_checked": sorted(set(self.digests) & set(GOLDEN["cases"]))}


WORKLOADS = {w.name: w for w in (OracleBD, DenseAnalyze, EvolveLong)}
