"""Tests for HTCConfig validation and derived properties."""

import numpy as np
import pytest

from repro.core.config import HTCConfig


class TestHTCConfig:
    def test_defaults_use_all_orbits(self):
        config = HTCConfig()
        assert config.resolved_orbits == tuple(range(13))

    def test_explicit_orbits(self):
        config = HTCConfig(orbits=[0, 3, 5])
        assert config.resolved_orbits == (0, 3, 5)

    def test_range_accepted(self):
        config = HTCConfig(orbits=range(4))
        assert config.resolved_orbits == (0, 1, 2, 3)

    def test_hidden_dims(self):
        config = HTCConfig(embedding_dim=32, n_layers=3)
        assert config.hidden_dims == (32, 32, 32)

    def test_updated_returns_modified_copy(self):
        config = HTCConfig(epochs=50)
        changed = config.updated(epochs=10, embedding_dim=8)
        assert changed.epochs == 10
        assert changed.embedding_dim == 8
        assert config.epochs == 50

    def test_invalid_topology_mode(self):
        with pytest.raises(ValueError):
            HTCConfig(topology_mode="magic")

    def test_invalid_orbit_id(self):
        with pytest.raises(ValueError):
            HTCConfig(orbits=[13])

    def test_empty_orbits(self):
        with pytest.raises(ValueError):
            HTCConfig(orbits=[])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("embedding_dim", 0),
            ("n_layers", 0),
            ("learning_rate", 0.0),
            ("epochs", 0),
            ("n_neighbors", 0),
            ("reinforcement_rate", 1.0),
            ("max_refinement_iterations", 0),
        ],
    )
    def test_invalid_numeric_fields(self, field, value):
        with pytest.raises(ValueError):
            HTCConfig(**{field: value})

    def test_diffusion_mode_valid(self):
        config = HTCConfig(topology_mode="diffusion", diffusion_orders=(1, 2))
        assert config.topology_mode == "diffusion"

    @pytest.mark.parametrize(
        "field, value",
        [
            # The encoder is always shared (paper §IV-B); the field was never
            # read, so setting it to False silently trained a shared encoder.
            ("shared_encoder", True),
            # Score matrices are built in blocks whose height the similarity
            # engine sets; there is no dense path left to opt out of.
            ("score_chunk_size", 256),
            # It only carried the sharded stitch choice, and there is one
            # stitch left.
            ("extra", {"stitch": "streaming"}),
            # There is one orbit counter: the vectorized one on NumPy >= 2.0,
            # the pure-Python reference below that.
            ("orbit_backend", "numpy"),
        ],
    )
    def test_removed_fields_rejected(self, field, value):
        with pytest.raises(TypeError, match=field):
            HTCConfig(**{field: value})


class TestExecutorBackendField:
    def test_default_is_auto(self):
        assert HTCConfig().executor_backend == "auto"

    def test_explicit_backends_accepted(self):
        for name in ("serial", "process-pool", "process-pool-shm"):
            assert HTCConfig(executor_backend=name).executor_backend == name

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="executor_backend"):
            HTCConfig(executor_backend="carrier-pigeon")

    def test_removed_thread_pool_lists_the_choices(self):
        with pytest.raises(ValueError, match="executor_backend") as excinfo:
            HTCConfig(executor_backend="thread-pool")
        assert (
            "('auto', 'process-pool', 'process-pool-shm', 'serial')"
            in str(excinfo.value)
        )


class TestPrecisionFields:
    def test_defaults_validate(self):
        config = HTCConfig()
        assert config.compute_dtype == "float64"
        assert config.precision_policy.is_exact

    def test_float32_policy(self):
        config = HTCConfig(compute_dtype="float32")
        assert config.precision_policy.compute_dtype == np.dtype(np.float32)
        assert config.precision_policy.accum_dtype == np.dtype(np.float64)

    def test_bad_compute_dtype_rejected(self):
        with pytest.raises(ValueError, match="precision policy"):
            HTCConfig(compute_dtype="float16")

    def test_removed_compute_backend_field_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            HTCConfig(backend="numpy")
