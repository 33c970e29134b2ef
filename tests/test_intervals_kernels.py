"""Solver-kernel tests: one kernel, one instance, no knob.

:mod:`repro.intervals.kernels` holds the single damped-Newton HPD
kernel.  These tests pin that every batch HPD solve runs through its
module-level instance on either side of the row-path selection, that
the row path and the array path give the same bytes, that a row stops
iterating once a step leaves it unchanged, that ``RunContext`` still
accepts only the ``numpy`` name recorded contexts carry, and that the
kernel never reaches cache identity.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimators.base import Evidence
from repro.exceptions import IntervalError, ValidationError
from repro.intervals import AdaptiveHPD, hpd_bounds_batch, kernels
from repro.intervals.kernels import (
    KERNEL,
    NEWTON_MAX_ITER,
    ROW_PATH_MAX,
    SolverKernel,
)
from repro.intervals.priors import JEFFREYS, KERMAN, UNIFORM
from repro.runtime import ParallelExecutor, RunContext

#: ``ROW_PATH_MAX`` values that force each side of the selection: no
#: non-empty call is at most 0 rows, and every call is at most 10**9.
FORCE = {"rows": 10**9, "arrays": 0}


def forced(path: str):
    """Patch the selection so every call takes *path*."""
    return mock.patch.object(kernels, "ROW_PATH_MAX", FORCE[path])


def count_iterations(monkeypatch) -> dict[str, list[int]]:
    """Count density evaluations per path: two per Newton iteration.

    The array path evaluates ``kernels._beta_pdf_raw`` and the row path
    ``kernels._density``, each twice per iteration, so the counts are
    iterations on either path.
    """
    calls: dict[str, list[int]] = {"rows": [], "arrays": []}
    densities, density = kernels._beta_pdf_raw, kernels._density

    def arrays(x, *constants):
        calls["arrays"].append(len(x))
        return densities(x, *constants)

    def rows(x, *constants):
        calls["rows"].append(1)
        return density(x, *constants)

    monkeypatch.setattr(kernels, "_beta_pdf_raw", arrays)
    monkeypatch.setattr(kernels, "_density", rows)
    return calls


def same_bytes(left, right) -> bool:
    return all(
        np.asarray(x).tobytes() == np.asarray(y).tobytes()
        and np.asarray(x).dtype == np.asarray(y).dtype
        for x, y in zip(left, right, strict=True)
    )


class TestRegistry:
    def test_kernel_names_cover_the_knob(self):
        # ``serve --kernel`` and ``RunContext(kernel=...)`` accept the
        # same single name, and every accepted form resolves to it.
        from repro.cli import _build_parser as build_parser

        serve = build_parser().parse_args(["serve", "--kernel", "numpy"])
        assert serve.kernel == "numpy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--kernel", "native"])
        for name in (None, "numpy"):
            assert RunContext(kernel=name).kernel == "numpy"

    def test_numpy_kernel_is_a_singleton(self):
        from repro.intervals import batch

        assert isinstance(KERNEL, SolverKernel)
        assert batch.KERNEL is KERNEL

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValidationError, match="kernel"):
            RunContext(kernel="fortran")

    def test_native_unavailable_raises_loudly(self):
        for retired in ("native", "auto"):
            with pytest.raises(ValidationError, match="numpy"):
                RunContext(kernel=retired)
        with pytest.raises(TypeError):
            ParallelExecutor(kernel="numpy")


class TestAmbientSelection:
    def test_hpd_bounds_flow_through_the_ambient_kernel(self, monkeypatch):
        a = np.array([3.5, 12.0, 80.5, 0.5, 1.0])
        b = np.array([2.5, 4.0, 20.5, 3.0, 1.0])
        direct = hpd_bounds_batch(a, b, 0.05)
        seen = []
        newton = SolverKernel.newton_interior

        def spy(self, a_rows, b_rows, alpha):
            seen.append(len(a_rows))
            return newton(self, a_rows, b_rows, alpha)

        # Patching the class method reaches every solve: the instance
        # is looked up at call time, never bound at import.
        monkeypatch.setattr(SolverKernel, "newton_interior", spy)
        spied = hpd_bounds_batch(a, b, 0.05)
        assert seen == [3]  # the interior-mode rows only
        assert np.array_equal(direct[0], spied[0])
        assert np.array_equal(direct[1], spied[1])

    def test_a_one_evidence_ahpd_call_enters_the_kernel_once(self, monkeypatch):
        # aHPD handles its counts and winners in floats but still
        # solves through hpd_bounds_batch: one call, one row per prior.
        seen = []
        newton = SolverKernel.newton_interior

        def spy(self, a_rows, b_rows, alpha):
            seen.append(len(a_rows))
            return newton(self, a_rows, b_rows, alpha)

        monkeypatch.setattr(SolverKernel, "newton_interior", spy)
        twcs_round = Evidence(
            mu_hat=0.9, variance=0.002, n_effective=41.5, tau_effective=37.35,
            n_annotated=45,
        )
        AdaptiveHPD().compute_batch([twcs_round], 0.05)
        assert seen == [3]

    def test_both_sides_of_the_selection_enter_the_kernel(self, monkeypatch):
        sizes = (ROW_PATH_MAX, ROW_PATH_MAX + 1)
        rows = [
            (np.linspace(2.5, 80.5, size), np.linspace(40.0, 3.0, size))
            for size in sizes
        ]
        direct = [hpd_bounds_batch(a, b, 0.05) for a, b in rows]
        seen = []
        newton = SolverKernel.newton_interior

        def spy(self, a_rows, b_rows, alpha):
            seen.append(len(a_rows))
            return newton(self, a_rows, b_rows, alpha)

        monkeypatch.setattr(SolverKernel, "newton_interior", spy)
        calls = count_iterations(monkeypatch)
        spied = [hpd_bounds_batch(a, b, 0.05) for a, b in rows]
        assert seen == list(sizes)
        # The call at the constant iterated row by row; the one above it
        # over arrays of all its rows.
        assert calls["rows"] and calls["arrays"]
        assert calls["arrays"][0] == sizes[1]
        for want, got in zip(direct, spied):
            assert same_bytes(want, got)


#: ``tau = n - 1`` posteriors whose iterates reach a fixed point that
#: float noise near 1 keeps just outside the ``1e-12`` density test:
#: (prior, alpha, n, lower, upper), the bounds as ``float.hex``, pinned
#: while such rows still ran all ``NEWTON_MAX_ITER`` iterations.
FIXED_POINT_ROWS = [
    (KERMAN, 0.05, 14, "0x1.87b11540c7569p-1", "0x1.fffe78552b4c9p-1"),
    (KERMAN, 0.05, 100, "0x1.edbc55e817547p-1", "0x1.ffffe56d7e164p-1"),
    (KERMAN, 0.05, 500, "0x1.fc4f06754bd2bp-1", "0x1.fffffb2626526p-1"),
    (KERMAN, 0.05, 2000, "0x1.ff134ae7b25f0p-1", "0x1.fffffecec7ef0p-1"),
    (KERMAN, 0.1, 100, "0x1.f17de45bd9ecbp-1", "0x1.ffff3a47b0a35p-1"),
    (KERMAN, 0.1, 1000, "0x1.fe89776702b61p-1", "0x1.ffffedc98219cp-1"),
    (JEFFREYS, 0.05, 100, "0x1.ec53666dd28a6p-1", "0x1.fffdc1547ed9dp-1"),
    (JEFFREYS, 0.05, 500, "0x1.fc02e90956771p-1", "0x1.ffff94440821dp-1"),
    (JEFFREYS, 0.05, 1000, "0x1.fe009621783cdp-1", "0x1.ffffca90de354p-1"),
    (JEFFREYS, 0.1, 2000, "0x1.ff3305ef7a4bfp-1", "0x1.ffff9a0920708p-1"),
]


class TestFixedPoint:
    @pytest.mark.parametrize("path", sorted(FORCE))
    @pytest.mark.parametrize(
        "prior, alpha, n, lower, upper",
        FIXED_POINT_ROWS,
        ids=[f"{row[0].name}-{row[1]}-{row[2]}" for row in FIXED_POINT_ROWS],
    )
    def test_a_row_at_a_fixed_point_stops_with_the_same_bounds(
        self, monkeypatch, path, prior, alpha, n, lower, upper
    ):
        calls = count_iterations(monkeypatch)
        a, b = np.array([prior.a + (n - 1)]), np.array([prior.b + 1.0])
        with forced(path):
            solved = hpd_bounds_batch(a, b, alpha)
        assert (solved[0][0].hex(), solved[1][0].hex()) == (lower, upper)
        # Two density evaluations per iteration: the row settles within
        # a dozen iterations instead of spinning through the whole cap.
        # A count of 0 would mean the path no longer reaches the counter.
        assert 0 < len(calls[path]) <= 2 * 12 < 2 * NEWTON_MAX_ITER

    def test_settled_rows_leave_the_batch_without_moving_the_others(self):
        a = np.array([prior.a + (n - 1) for prior, _, n, _, _ in FIXED_POINT_ROWS])
        b = np.array([prior.b + 1.0 for prior, *_ in FIXED_POINT_ROWS])
        interior = np.array([3.5, 12.0, 80.5])
        a_rows = np.concatenate([a, interior])
        b_rows = np.concatenate([b, interior[::-1]])
        together = hpd_bounds_batch(a_rows, b_rows, 0.05)
        for row in range(len(a_rows)):
            alone = hpd_bounds_batch(a_rows[row : row + 1], b_rows[row : row + 1], 0.05)
            assert together[0][row] == alone[0][0]
            assert together[1][row] == alone[1][0]


#: Rows with a named behaviour: (id, a, b, alpha).  Both paths must give
#: the same bytes for each, from ``newton_interior`` and from
#: ``hpd_bounds_batch``.
NAMED_ROWS = [
    # A tau = n - 1 row (Kerman, n 240) whose lower bound flips between
    # 0x1.f854df8b16b82p-1 and ...83p-1, so it runs all NEWTON_MAX_ITER
    # iterations, and its n 241 neighbour, once reported doing the same
    # (it now converges in 8).
    ("period-2", KERMAN.a + 239.0, KERMAN.b + 1.0, 0.05),
    ("period-2-n241", KERMAN.a + 240.0, KERMAN.b + 1.0, 0.05),
    # Mode within 2e-12 of 0: failed before the first step.
    ("boundary-mode", 1.0 + 1e-9, 1e4, 0.05),
    # An iterate runs into the bracket and the step is refused: failed
    # mid-iteration, re-solved by the scalar fallback.
    ("stuck", 34.5, 1.04, 0.2),
    # Leaves the loop unfailed but misses the mass tolerance, so the
    # scalar fallback re-solves it.
    ("mass-check", 1.02, 27.5, 0.01),
] + [
    (f"fixed-point-{prior.name}-{alpha}-{n}", prior.a + (n - 1), prior.b + 1.0, alpha)
    for prior, alpha, n, _, _ in FIXED_POINT_ROWS
]


def both_paths(solve, *args):
    """``solve(*args)`` forced onto the row path, then the array path."""
    with forced("rows"):
        rows = solve(*args)
    with forced("arrays"):
        arrays = solve(*args)
    return rows, arrays


class TestRowPath:
    @pytest.mark.parametrize(
        "a, b, alpha", [row[1:] for row in NAMED_ROWS], ids=[row[0] for row in NAMED_ROWS]
    )
    def test_named_rows_give_the_same_bytes(self, a, b, alpha):
        a_rows, b_rows = np.array([a]), np.array([b])
        rows, arrays = both_paths(KERNEL.newton_interior, a_rows, b_rows, alpha)
        assert same_bytes(rows, arrays)
        rows, arrays = both_paths(hpd_bounds_batch, a_rows, b_rows, alpha)
        assert same_bytes(rows, arrays)

    def test_named_rows_cover_failed_and_fallback_rows(self):
        named = {row[0]: row[1:] for row in NAMED_ROWS}
        for path in FORCE:
            with forced(path):
                for name in ("boundary-mode", "stuck"):
                    a, b, alpha = named[name]
                    _, _, failed = KERNEL.newton_interior(
                        np.array([a]), np.array([b]), alpha
                    )
                    assert failed.tolist() == [True], name
                a, b, alpha = named["mass-check"]
                lower, upper, failed = KERNEL.newton_interior(
                    np.array([a]), np.array([b]), alpha
                )
                assert failed.tolist() == [False]
                solved = hpd_bounds_batch([a], [b], alpha)
                assert not same_bytes((lower, upper), solved)  # re-solved

    def test_both_paths_take_the_same_iterations(self, monkeypatch):
        calls = count_iterations(monkeypatch)
        iterations = {}
        for name, a, b, alpha in NAMED_ROWS:
            for path in FORCE:
                with forced(path):
                    KERNEL.newton_interior(np.array([a]), np.array([b]), alpha)
            assert len(calls["rows"]) == len(calls["arrays"]), name
            iterations[name] = len(calls["rows"]) // 2
            calls["rows"].clear()
            calls["arrays"].clear()
        assert iterations["period-2"] == NEWTON_MAX_ITER
        assert iterations["boundary-mode"] == 0
        assert 0 < iterations["period-2-n241"] < NEWTON_MAX_ITER

    @pytest.mark.parametrize("path", sorted(FORCE))
    def test_bathtub_and_invalid_rows_raise_the_same_text(self, path):
        with forced(path):
            with pytest.raises(IntervalError) as bathtub:
                hpd_bounds_batch([12.0, 0.5, 3.0, 0.2], [4.0, 0.4, 30.0, 0.9], 0.05)
            with pytest.raises(ValidationError) as invalid:
                hpd_bounds_batch([12.0, np.nan], [4.0, 3.0], 0.05)
        assert str(bathtub.value) == (
            "the HPD region of a U-shaped posterior is not an interval; "
            "2 batch row(s) have a, b < 1"
        )
        assert str(invalid.value) == "posterior shapes must be positive"

    def test_empty_calls_agree(self):
        empty = np.array([], dtype=float)
        assert same_bytes(*both_paths(KERNEL.newton_interior, empty, empty, 0.05))
        assert same_bytes(*both_paths(hpd_bounds_batch, empty, empty, 0.05))


above_one = st.floats(min_value=1.0, max_value=5000.0, exclude_min=True)
up_to_one = st.floats(min_value=0.05, max_value=1.0)
posterior_rows = st.one_of(
    st.tuples(above_one, above_one),  # interior
    st.tuples(above_one, up_to_one),  # increasing
    st.tuples(up_to_one, above_one),  # decreasing
    st.just((1.0, 1.0)),  # flat
    st.builds(  # tau = n - 1: iterates that graze 1
        lambda prior, n: (prior.a + (n - 1), prior.b + 1.0),
        st.sampled_from([KERMAN, JEFFREYS, UNIFORM]),
        st.integers(min_value=2, max_value=3000),
    ),
)


@given(
    rows=st.lists(posterior_rows, min_size=1, max_size=3 * ROW_PATH_MAX),
    alpha=st.floats(min_value=1e-4, max_value=0.5),
)
@settings(max_examples=120, deadline=None)
def test_either_side_of_the_selection_gives_the_same_bytes(rows, alpha):
    a = np.array([row[0] for row in rows])
    b = np.array([row[1] for row in rows])
    rows_path, arrays_path = both_paths(hpd_bounds_batch, a, b, alpha)
    assert same_bytes(rows_path, arrays_path)
    interior = (a > 1.0) & (b > 1.0)
    if interior.any():
        rows_path, arrays_path = both_paths(
            KERNEL.newton_interior, a[interior], b[interior], alpha
        )
        assert same_bytes(rows_path, arrays_path)


class TestEnvironmentResolution:
    def test_kernel_never_enters_cache_identity(self):
        from repro.experiments.config import ExperimentSettings
        from repro.runtime.spec import _SETTINGS_TOKEN_FIELDS

        settings = ExperimentSettings(repetitions=3, seed=0)
        assert not hasattr(settings, "kernel")
        assert "kernel" not in _SETTINGS_TOKEN_FIELDS
        assert RunContext().kernel == RunContext(kernel="numpy").kernel == "numpy"
        assert RunContext().describe()["kernel"] == "numpy"
