"""Solver-kernel tests: one kernel, one instance, no knob.

:mod:`repro.intervals.kernels` holds the single damped-Newton HPD
kernel.  These tests pin that every batch HPD solve runs through its
module-level instance, that ``RunContext`` still accepts only the
``numpy`` name recorded contexts carry, and that the kernel never
reaches cache identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.intervals import hpd_bounds_batch
from repro.intervals.kernels import KERNEL, SolverKernel
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


class TestEnvironmentResolution:
    def test_kernel_never_enters_cache_identity(self):
        from repro.experiments.config import ExperimentSettings
        from repro.runtime.spec import _SETTINGS_TOKEN_FIELDS

        settings = ExperimentSettings(repetitions=3, seed=0)
        assert not hasattr(settings, "kernel")
        assert "kernel" not in _SETTINGS_TOKEN_FIELDS
        assert RunContext().kernel == RunContext(kernel="numpy").kernel == "numpy"
        assert RunContext().describe()["kernel"] == "numpy"
