"""Solver-kernel tests: one kernel, one instance, no knob.

:mod:`repro.intervals.kernels` holds the single damped-Newton HPD
kernel.  These tests pin that every batch HPD solve runs through its
module-level instance, that a row stops iterating once a step leaves
it unchanged, that ``RunContext`` still accepts only the ``numpy`` name
recorded contexts carry, and that the kernel never reaches cache
identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.intervals import hpd_bounds_batch, kernels
from repro.intervals.kernels import KERNEL, NEWTON_MAX_ITER, SolverKernel
from repro.intervals.priors import JEFFREYS, KERMAN
from repro.runtime import ParallelExecutor, RunContext


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
    @pytest.mark.parametrize(
        "prior, alpha, n, lower, upper",
        FIXED_POINT_ROWS,
        ids=[f"{row[0].name}-{row[1]}-{row[2]}" for row in FIXED_POINT_ROWS],
    )
    def test_a_row_at_a_fixed_point_stops_with_the_same_bounds(
        self, monkeypatch, prior, alpha, n, lower, upper
    ):
        pdf_calls = []
        pdf = kernels._beta_pdf_raw

        def counted(x, a, b):
            pdf_calls.append(len(x))
            return pdf(x, a, b)

        monkeypatch.setattr(kernels, "_beta_pdf_raw", counted)
        a, b = np.array([prior.a + (n - 1)]), np.array([prior.b + 1.0])
        solved = hpd_bounds_batch(a, b, alpha)
        assert (solved[0][0].hex(), solved[1][0].hex()) == (lower, upper)
        # Two density evaluations per iteration: the row settles within
        # a dozen iterations instead of spinning through the whole cap.
        assert len(pdf_calls) <= 2 * 12 < 2 * NEWTON_MAX_ITER

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


class TestEnvironmentResolution:
    def test_kernel_never_enters_cache_identity(self):
        from repro.experiments.config import ExperimentSettings
        from repro.runtime.spec import _SETTINGS_TOKEN_FIELDS

        settings = ExperimentSettings(repetitions=3, seed=0)
        assert not hasattr(settings, "kernel")
        assert "kernel" not in _SETTINGS_TOKEN_FIELDS
        assert RunContext().kernel == RunContext(kernel="numpy").kernel == "numpy"
        assert RunContext().describe()["kernel"] == "numpy"
