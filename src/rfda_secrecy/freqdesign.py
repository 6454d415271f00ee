"""Synthesis and validation of frequency-increment vectors.

A frequency vector ``k`` shapes the beampattern around the aim point through
two functionals: ``rho1 = sum_{m,n} (k_m - k_n)^2`` (radial curvature) and
``rho2 = sum_{m,n} (k_m - k_n)(m - n)`` (range/angle cross coupling).  The
beampattern contracts to a clean ellipse exactly when ``rho1 = 2*M*K`` and
``rho2 = 0``, i.e. when ``k`` is orthogonal to both the all-ones vector and
the element-index vector.  :func:`generate_k` draws random vectors on that
subspace, either by direct projection or through the eigen-structure of the
design matrix :func:`build_design_matrix`.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, FixtureError

# fixture label -> (nominal squared norm K, nominal increment span in MHz),
# in increasing K: the bandwidth sweep's axis
FIXTURES = {
    "K10405": (10405.0, 90.0),
    "K12905": (12905.0, 100.0),
    "K15405": (15405.0, 110.0),
}


def rho1(k) -> float:
    "sum_{m,n} (k_m - k_n)^2, computed as 2*M*(k.k) - 2*(sum k)^2."
    karr = np.asarray(k, dtype=float)
    m = karr.size
    return float(2.0 * m * (karr @ karr) - 2.0 * karr.sum() ** 2)


def rho2(k) -> float:
    "sum_{m,n} (k_m - k_n)(m - n), computed as 2*(M*sum(m*k_m) - sum(m)*sum(k))."
    karr = np.asarray(k, dtype=float)
    m = karr.size
    idx = np.arange(1, m + 1, dtype=float)
    return float(2.0 * (m * (idx @ karr) - idx.sum() * karr.sum()))


def build_design_matrix(n_elements: int) -> np.ndarray:
    """Symmetric matrix whose top eigenspace holds the ellipse-compatible k.

    ``A = (1/3) M^3 (M^2-1) I - (2/3) M^2 (2M^2+3M+1) E - 4 M^2 G
    + 2 M^2 (M+1) P`` with ``G[m,n] = m*n``, ``P[m,n] = m+n`` (1-based) and
    ``E`` all ones.  A annihilates span{ones, index}, so its top eigenspace
    is exactly the subspace where rho1 = 2MK and rho2 = 0.
    """
    if n_elements < 2:
        raise ValueError("design matrix needs n_elements >= 2")
    m = float(n_elements)
    idx = np.arange(1, n_elements + 1, dtype=float)
    g = np.outer(idx, idx)
    p = idx[:, None] + idx[None, :]
    a = (m ** 3 * (m ** 2 - 1) / 3.0 * np.eye(n_elements)
         - 2.0 * m ** 2 * (2 * m ** 2 + 3 * m + 1) / 3.0 * np.ones((n_elements, n_elements))
         - 4.0 * m ** 2 * g
         + 2.0 * m ** 2 * (m + 1) * p)
    return a


@dataclass(frozen=True)
class EigenResult:
    """Spectral decomposition: eigenvalues descending, eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetric_eigen(a, tol: float = 1e-10, max_sweeps: int = 100) -> EigenResult:
    """Full spectral decomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Rotations run until the off-diagonal Frobenius norm drops below
    ``tol * ||A||_F``.  Raises :class:`ConvergenceError` after ``max_sweeps``
    sweeps, and ``ValueError`` on a matrix that is not square, symmetric and
    finite.  The rotations run one pair of rows and columns at a time in
    Python, so a solve of the M = 64 design matrix still takes tens of
    milliseconds; each process solves a given (matrix, ``tol``, ``max_sweeps``)
    once: the last few decompositions are kept, and their arrays are read-only
    because every caller shares them.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-9 * scale:
        raise ValueError("matrix is not symmetric")
    return _jacobi(a.tobytes(), a.shape[0], tol, max_sweeps)


@functools.lru_cache(maxsize=8)
def _jacobi(buf: bytes, n: int, tol: float, max_sweeps: int) -> EigenResult:
    """The sweeps of :func:`symmetric_eigen` on the n x n matrix whose C-order bytes are ``buf``.

    Each rotation makes the float operations of ``reference.jacobi_rotations``
    in place, so the two agree bit for bit."""
    # a stacked over v, so that one pair of column views turns both
    av = np.empty((2 * n, n))
    a, v = av[:n], av[n:]
    a[:] = np.frombuffer(buf).reshape(n, n)
    v[:] = np.eye(n)
    norm = np.linalg.norm(a)
    x, y = np.empty(2 * n), np.empty(2 * n)  # scratch for a column of av, or a row of a
    xr, yr = x[:n], y[:n]

    def off_norm():
        strict = np.tril(a, -1)
        return np.sqrt(2.0 * np.sum(strict * strict))

    def rotate(bp, bq, c, s, x, y):
        "(bp, bq) <- (c*bp - s*bq, s*bp + c*bq), through the scratch rows x and y."
        np.multiply(bp, s, out=x)
        np.multiply(bq, s, out=y)
        np.multiply(bp, c, out=bp)
        np.subtract(bp, y, out=bp)
        np.multiply(bq, c, out=bq)
        np.add(bq, x, out=bq)

    converged = norm == 0.0 or off_norm() <= tol * norm
    for _ in range(max_sweeps):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a.item(p, q)
                if abs(apq) <= 1e-300:
                    continue
                theta = (a.item(q, q) - a.item(p, p)) / (2.0 * apq)
                # np.hypot, not math.hypot: the two round differently
                t = ((1.0 if theta > 0 else -1.0) / (abs(theta) + float(np.hypot(theta, 1.0)))
                     if theta != 0 else 1.0)
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rotate(a[p], a[q], c, s, xr, yr)
                rotate(av[:, p], av[:, q], c, s, x, y)
        converged = off_norm() <= tol * norm
    if not converged:
        raise ConvergenceError(
            f"Jacobi sweeps did not reach off-diagonal tolerance in {max_sweeps} sweeps")
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues, eigenvectors = eigenvalues[order], v[:, order]
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return EigenResult(eigenvalues, eigenvectors)


@functools.lru_cache
def _feasible_basis(n_elements: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal vectors spanning the infeasible directions: ones and centered
    index.  Cached, so the arrays are read-only: every caller shares them."""
    ones = np.ones(n_elements) / np.sqrt(n_elements)
    idx = np.arange(1, n_elements + 1, dtype=float)
    idx -= idx.mean()
    idx /= np.linalg.norm(idx)
    ones.setflags(write=False)
    idx.setflags(write=False)
    return ones, idx


def require_feasible(n_elements: int) -> None:
    "Raise unless an ``n_elements`` array has a k orthogonal to the ones and index vectors."
    if n_elements < 3:
        raise ValueError(
            "generate_k is infeasible for n_elements < 3: no direction is orthogonal "
            "to both the all-ones and the index vector")


def generate_k(n_elements: int, k_target: float, method: str = "projection",
               seed: int | np.random.Generator = 0) -> np.ndarray:
    """Random frequency vector with k.k = k_target, rho1 = 2MK and rho2 = 0.

    ``projection`` draws a Gaussian vector and projects out the all-ones and
    index directions; ``eigen`` draws a random combination of the design
    matrix's top eigenvectors.  Both land on the same (M-2)-dimensional
    subspace, so either satisfies the ellipse conditions; projection is the
    default because it needs no eigensolve.  Each call draws once, one
    standard-normal vector, so the same seed always reproduces the same vector;
    a draw with a degenerate direction raises ``ValueError``.
    """
    require_feasible(n_elements)
    # rho1 = 2*M*K of the drawn vector must be finite too
    if not (k_target > 0 and math.isfinite(2.0 * n_elements * k_target)):
        raise ValueError(f"k_target must be positive with 2*M*k_target finite, "
                         f"got {k_target}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    # the method picks the map from a standard normal draw to a direction
    if method == "projection":
        ones, idx = _feasible_basis(n_elements)
        dim, direction = n_elements, lambda g: g - ones.dot(g) * ones - idx.dot(g) * idx
    elif method == "eigen":
        # the orthogonality contract (1e-9 * sqrt(K) on the two linear
        # functionals) outruns the default sweep tolerance once M grows, so
        # resolve the eigenvectors tighter than the solver default
        eig = symmetric_eigen(build_design_matrix(n_elements), tol=1e-14)
        lam_max = eig.eigenvalues[0]
        top = eig.eigenvectors[:, eig.eigenvalues >= lam_max - 1e-6 * lam_max]
        dim, direction = top.shape[1], top.__matmul__
    else:
        raise ValueError(f"unknown method {method!r}, expected 'projection' or 'eigen'")

    vec = direction(rng.standard_normal(dim))
    norm = math.sqrt(vec.dot(vec))  # np.linalg.norm's 1-D branch, undispatched
    if not norm > 1e-12:
        raise ValueError(f"the {method} draw of k gave a degenerate direction")
    return vec * math.sqrt(k_target) / norm


def default_fixture_path() -> Path:
    "Path of the packaged frequency-increment table."
    return Path(__file__).parent / "fixtures" / "table1.csv"


def load_frequency_table(path: str | Path | None = None) -> list[tuple[str, np.ndarray]]:
    """Load labeled frequency vectors from the fixture CSV.

    Schema: header ``label,m1,...,m16``, one row per vector, increments in
    MHz.  With the reference increment of 1 MHz the printed numbers are the
    dimensionless k entries themselves.
    """
    path = Path(path) if path is not None else default_fixture_path()
    if not path.exists():
        raise FixtureError(f"fixture file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FixtureError(f"{path}: empty fixture file")
    expected_header = ["label"] + [f"m{i}" for i in range(1, 17)]
    if rows[0] != expected_header:
        raise FixtureError(f"{path}: bad header {rows[0]!r}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 17:
            raise FixtureError(f"{path}: row {lineno} has {len(row)} columns, expected 17")
        try:
            values = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise FixtureError(f"{path}: row {lineno}: {exc}") from exc
        out.append((row[0], np.array(values)))
    if not out:
        raise FixtureError(f"{path}: no data rows")
    return out
