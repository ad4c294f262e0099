"""The plan-backend layer: registry, C renderer parity, and fallback.

The contract under test ("parity is structural"): whatever subset of a
plan's stages the ``cgen`` backend renders to C, replaying the plan
yields the numpy lowering's answer — bitwise under ``cgen-strict``,
inside the float band under ``cgen`` — and when no C compiler exists the
whole plan silently (well, with one RuntimeWarning) degrades to the
numpy closures.  A hypothesis sweep drives random layer stacks and
dtypes through both parity modes against the numpy oracle; directed
tests cover the live-BN rebind after adaptation, per-sample fleet
overrides, the on-disk ``.so`` cache (which must satisfy loads *before*
looking for a compiler), profile labeling, and the config-level backend
validation in the serving and pipeline layers.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import nn
from repro.adapt.bn_adapt import LDBNAdapt, LDBNAdaptConfig
from repro.engine import CompiledAdaptStep, compile_model
from repro.engine.backends import (
    PARITY_ATOL,
    PARITY_RTOL,
    CGenBackend,
    NumpyBackend,
    available_backends,
    find_cc,
    get_backend,
    resolve_backend,
)
from repro.models import build_model, get_config
from repro.pipeline.realtime import PipelineConfig
from repro.serve.server import FleetConfig

HAVE_CC = find_cc() is not None
needs_cc = pytest.mark.skipif(HAVE_CC is False, reason="no C compiler")


def _band(dtype):
    name = np.dtype(dtype).name
    return dict(
        rtol=PARITY_RTOL.get(name, 1e-9), atol=PARITY_ATOL.get(name, 1e-12)
    )


def _fresh_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path / "cgen-cache"))


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_registered_names(self):
        names = available_backends()
        for name in ("numpy", "cgen", "cgen-strict"):
            assert name in names

    def test_get_backend_unknown_lists_choices(self):
        with pytest.raises(ValueError, match="numpy"):
            get_backend("fortran")

    def test_get_backend_is_singleton(self):
        assert get_backend("cgen") is get_backend("cgen")

    def test_resolve_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert isinstance(resolve_backend(None), NumpyBackend)

    def test_resolve_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cgen")
        assert isinstance(resolve_backend(None), CGenBackend)

    def test_resolve_passes_instances_through(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend

    def test_strict_registration_sets_parity(self):
        assert get_backend("cgen-strict").parity == "strict"
        assert get_backend("cgen").parity == "band"

    def test_unknown_parity_rejected(self):
        with pytest.raises(ValueError, match="parity"):
            CGenBackend(parity="fast")


# ---------------------------------------------------------------------------
# property sweep: random stacks, both parity modes, vs the numpy oracle

_LAYERS = st.sampled_from(["conv", "conv_bn_relu", "maxpool", "relu"])


def _build_stack(draw, in_ch, rng):
    layers, ch = [], in_ch
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(_LAYERS)
        if kind == "conv":
            out = draw(st.sampled_from([3, 4, 8]))
            k = draw(st.sampled_from([1, 3]))
            layers.append(
                nn.Conv2d(ch, out, k, padding=k // 2, bias=draw(st.booleans()),
                          rng=rng)
            )
            ch = out
        elif kind == "conv_bn_relu":
            out = draw(st.sampled_from([4, 8]))
            layers += [
                nn.Conv2d(ch, out, 3, padding=1, bias=False, rng=rng),
                nn.BatchNorm2d(out),
                nn.ReLU(),
            ]
            ch = out
        elif kind == "maxpool":
            layers.append(nn.MaxPool2d(2))
        else:
            layers.append(nn.ReLU())
    return nn.Sequential(*layers)


@needs_cc
class TestParitySweep:
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_band_and_strict_vs_numpy_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        in_ch = data.draw(st.sampled_from([1, 3]))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        model = _build_stack(data.draw, in_ch, rng)
        model.eval()
        x = rng.standard_normal((2, in_ch, 8, 12)).astype(dtype)

        oracle = compile_model(model)(x).numpy()
        band = compile_model(model, backend="cgen")(x).numpy()
        strict = compile_model(model, backend="cgen-strict")(x).numpy()

        np.testing.assert_allclose(band, oracle, **_band(oracle.dtype))
        assert np.array_equal(strict, oracle), (
            "cgen-strict must be bitwise-identical to the numpy lowering"
        )

    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_linear_head(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        fin = data.draw(st.sampled_from([7, 32]))
        model = nn.Sequential(
            nn.Linear(fin, 5, bias=data.draw(st.booleans()), rng=rng),
            nn.ReLU(),
        )
        model.eval()
        x = rng.standard_normal((3, fin))
        oracle = compile_model(model)(x).numpy()
        band = compile_model(model, backend="cgen")(x).numpy()
        strict = compile_model(model, backend="cgen-strict")(x).numpy()
        np.testing.assert_allclose(band, oracle, **_band(oracle.dtype))
        assert np.array_equal(strict, oracle)

    def test_run_is_deterministic(self, rng):
        model = _bn_model(rng)
        engine = compile_model(model, backend="cgen")
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        first = engine(x).numpy().copy()
        for _ in range(3):
            assert np.array_equal(engine(x).numpy(), first)


# ---------------------------------------------------------------------------
# directed parity: live BN state, per-sample overrides, adaptation


def _bn_model(rng):
    model = nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.Conv2d(8, 4, 1, rng=rng),
    )
    model.eval()
    return model


@needs_cc
class TestLiveBNBinding:
    def test_parity_survives_bn_adaptation(self, rng):
        """No retrace/recompile: the SAME cgen plan must track BN
        rewrites because the fold vectors are runtime pointer-table
        arguments, not baked constants."""
        model = _bn_model(rng)
        eng_np = compile_model(model)
        eng_c = compile_model(model, backend="cgen")
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        eng_c(x)  # compile once, before adaptation
        plan = eng_c.plan_for(x.shape, x.dtype)
        assert plan.backend_info["rendered"] > 0

        adapter = LDBNAdapt(model, LDBNAdaptConfig(batch_size=1))
        for _ in range(2):
            adapter.adapt(rng.standard_normal((1, 3, 8, 12)).astype(np.float32))
        model.eval()

        np.testing.assert_allclose(
            eng_c(x).numpy(), eng_np(x).numpy(), **_band(np.float32)
        )
        # still the same compiled plan — no recompile happened
        assert eng_c.plan_for(x.shape, x.dtype) is plan

    def test_per_sample_override_parity(self, rng):
        model = _bn_model(rng)
        eng_np = compile_model(model)
        eng_c = compile_model(model, backend="cgen")
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        eng_c(x)

        bn = next(m for m in model.modules() if isinstance(m, nn.BatchNorm2d))
        scale = rng.uniform(0.5, 2.0, size=(2, 8))
        shift = rng.uniform(-1.0, 1.0, size=(2, 8))
        try:
            bn.per_sample_stats = (scale, shift)
            np.testing.assert_allclose(
                eng_c(x).numpy(), eng_np(x).numpy(), **_band(np.float32)
            )
        finally:
            bn.per_sample_stats = None
        # and the plan recovers the shared-stats path afterwards
        np.testing.assert_allclose(
            eng_c(x).numpy(), eng_np(x).numpy(), **_band(np.float32)
        )

    def test_adaptation_step_through_cgen_backend(self, rng):
        """CompiledAdaptStep with C-rendered forwards lands on the same
        post-step state as the numpy-compiled step, to the float band."""
        states = {}
        for backend in ("numpy", "cgen"):
            model = _bn_model(np.random.default_rng(7))
            adapter = LDBNAdapt(
                model, LDBNAdaptConfig(batch_size=1, backend=backend)
            )
            frames = np.random.default_rng(8)
            for _ in range(2):
                adapter.adapt(
                    frames.standard_normal((1, 3, 8, 12)).astype(np.float32)
                )
            states[backend] = model.state_dict()
        for key in states["numpy"]:
            np.testing.assert_allclose(
                np.asarray(states["cgen"][key], dtype=np.float64),
                np.asarray(states["numpy"][key], dtype=np.float64),
                rtol=1e-6, atol=1e-7,
            )


# ---------------------------------------------------------------------------
# fallback + cache


class TestFallback:
    def test_no_compiler_falls_back_to_numpy(self, rng, monkeypatch, tmp_path):
        _fresh_cache(monkeypatch, tmp_path)
        monkeypatch.setenv("REPRO_CC", "/nonexistent-compiler")
        model = _bn_model(rng)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        oracle = compile_model(model)(x).numpy()

        eng_c = compile_model(model, backend=CGenBackend())
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            out = eng_c(x).numpy()
        info = eng_c.plan_for(x.shape, x.dtype).backend_info
        assert info["rendered"] == 0
        assert info["fallback_reason"]
        assert np.array_equal(out, oracle), (
            "the fallback runs the numpy closures, so it is bitwise"
        )

    def test_find_cc_env_override_has_no_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent-compiler")
        assert find_cc() is None

    @needs_cc
    def test_so_cache_satisfies_loads_before_compiler_lookup(
        self, rng, monkeypatch, tmp_path
    ):
        """Compile once, then load the cached .so on a host with no
        compiler: fleets ship the cache, not a toolchain."""
        _fresh_cache(monkeypatch, tmp_path)
        model = _bn_model(rng)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        first = compile_model(model, backend=CGenBackend())
        first(x)
        info = first.plan_for(x.shape, x.dtype).backend_info
        assert info["rendered"] > 0 and info["cache_hit"] is False

        monkeypatch.setenv("REPRO_CC", "/nonexistent-compiler")
        second = compile_model(model, backend=CGenBackend())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any fallback warning fails
            out = second(x).numpy()
        info = second.plan_for(x.shape, x.dtype).backend_info
        assert info["rendered"] > 0 and info["cache_hit"] is True
        np.testing.assert_allclose(
            out, compile_model(model)(x).numpy(), **_band(np.float32)
        )


# ---------------------------------------------------------------------------
# observability + config plumbing


@needs_cc
class TestProfileAndInfo:
    def test_profile_tags_backend_and_rendered_stages(self, rng):
        model = _bn_model(rng)
        engine = compile_model(model, profile=True, backend="cgen")
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        engine(x)
        plan = engine.plan_for(x.shape, x.dtype)
        summary = plan.profile.summary()
        assert summary["backend"] == "cgen"
        assert any(label.startswith("cgen:") for label in summary["op_ms"])

        # adaptation: forward and backward share one step list; profiling
        # must label rendered stages of both and leave the numbers bitwise
        h, w = get_config("tiny-r18").input_hw
        x = rng.standard_normal((2, 3, h, w)).astype(np.float32)
        results = {}
        for profile in (False, True):
            model = build_model("tiny-r18", rng=np.random.default_rng(0))
            model.eval()
            plan = CompiledAdaptStep(
                model, profile=profile, backend="cgen-strict"
            ).plan_for(x)
            assert plan.backend_info["rendered"] > 0
            results[profile] = [np.asarray(plan.run(x)).copy()] + [
                grad.copy()
                for tap in plan.bn_taps
                for grad in (tap.grad_gamma, tap.grad_beta)
            ]
        for plain, profiled in zip(results[False], results[True]):
            assert plain.tobytes() == profiled.tobytes()
        labels = plan.profile.summary()["op_ms"]
        assert any(label.startswith("cgen:fwd:") for label in labels)
        assert any(label.startswith("cgen:bwd:") for label in labels)

    def test_backend_info_shape(self, rng):
        model = _bn_model(rng)
        engine = compile_model(model, backend="cgen")
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        engine(x)
        info = engine.plan_for(x.shape, x.dtype).backend_info
        assert info["backend"] == "cgen" and info["parity"] == "band"
        assert info["offered"] >= info["rendered"] > 0
        assert info["so"] and info["fallback_reason"] is None

    def test_numpy_plan_info(self, rng):
        model = _bn_model(rng)
        engine = compile_model(model)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        engine(x)
        assert engine.plan_for(x.shape, x.dtype).backend_info == {
            "backend": "numpy"
        }


class TestConfigValidation:
    def test_fleet_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="plan backend"):
            FleetConfig(backend="fortran")

    def test_fleet_config_accepts_registered_backends(self):
        assert FleetConfig(backend="cgen").backend == "cgen"

    def test_pipeline_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="plan backend"):
            PipelineConfig(backend="fortran")

    def test_pipeline_config_accepts_registered_backends(self):
        assert PipelineConfig(backend="cgen-strict").backend == "cgen-strict"


# ---------------------------------------------------------------------------
# odd output geometries: pixel counts that are no multiple of any vector
# width, single-row outputs


@needs_cc
class TestThreadedParity:
    """Every cgen plan runs single-threaded; the class keeps its name
    for the odd-geometry parity check it has always held."""

    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_band_and_strict_at_random_widths(self, data):
        """Odd spatial shapes (random frame widths, single-row outputs):
        band stays in the float band, strict stays bitwise."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        in_ch = data.draw(st.sampled_from([1, 3]))
        h = data.draw(st.sampled_from([1, 5, 9]))
        w = data.draw(st.sampled_from([3, 7, 13]))
        model = _build_stack(data.draw, in_ch, rng)
        model.eval()
        x = rng.standard_normal((2, in_ch, h, w)).astype(np.float32)

        try:
            oracle = compile_model(model)(x).numpy()
        except ValueError:
            # stacked max-pools collapsed the tiny spatial extent to 0
            assume(False)
        band = compile_model(model, backend="cgen")(x).numpy()
        strict = compile_model(model, backend="cgen-strict")(x).numpy()

        np.testing.assert_allclose(band, oracle, **_band(oracle.dtype))
        assert np.array_equal(strict, oracle), (
            f"cgen-strict must stay bitwise at {h}x{w}"
        )


# ---------------------------------------------------------------------------
# cache: parity-variant keying + corrupted-artifact recovery


@needs_cc
class TestPlanVariantCache:
    def test_parity_keys_distinct_artifacts(self, rng, monkeypatch, tmp_path):
        """Band and strict plans compile to distinct .so files even when
        they render the same source (max-pool and ReLU kernels are
        parity-independent) — a band plan can never load a strict
        artifact or back."""
        _fresh_cache(monkeypatch, tmp_path)
        model = nn.Sequential(nn.MaxPool2d(2), nn.ReLU())
        model.eval()
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        paths = {}
        for parity in ("band", "strict"):
            engine = compile_model(model, backend=CGenBackend(parity=parity))
            engine(x)
            info = engine.plan_for(x.shape, x.dtype).backend_info
            assert info["rendered"] > 0
            paths[parity] = info["so"]
        assert paths["band"] != paths["strict"]

    def test_same_config_hits_cache(self, rng, monkeypatch, tmp_path):
        _fresh_cache(monkeypatch, tmp_path)
        model = _bn_model(rng)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        first = compile_model(model, backend=CGenBackend())
        first(x)
        assert first.plan_for(x.shape, x.dtype).backend_info[
            "cache_hit"
        ] is False
        second = compile_model(model, backend=CGenBackend())
        second(x)
        info = second.plan_for(x.shape, x.dtype).backend_info
        assert info["cache_hit"] is True
        assert info["so"] == first.plan_for(x.shape, x.dtype).backend_info["so"]

    # compiles the reference model below in a *child* process so the
    # artifact lands in the cache without ever being dlopen'd here —
    # once a path is loaded, glibc hands the cached handle back to every
    # later dlopen of it, which would mask the corruption entirely
    _WARM_CACHE = """
import numpy as np
from repro import nn
from repro.engine import compile_model
from repro.engine.backends import CGenBackend

rng = np.random.default_rng(0)
model = nn.Sequential(
    nn.Conv2d(3, 8, 3, padding=1, bias=False, rng=rng),
    nn.BatchNorm2d(8),
    nn.ReLU(),
    nn.Conv2d(8, 4, 1, rng=rng),
)
model.eval()
x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
engine = compile_model(model, backend=CGenBackend())
engine(x)
info = engine.plan_for(x.shape, x.dtype).backend_info
assert info["rendered"] > 0 and info["cache_hit"] is False, info
print(info["so"])
"""

    def test_corrupted_so_is_recompiled(self, monkeypatch, tmp_path):
        """A truncated/garbage cache entry must not take the plan down:
        the loader deletes it, recompiles once, and flags the recovery."""
        _fresh_cache(monkeypatch, tmp_path)
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.dirname(os.path.dirname(repro.__file__)),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", self._WARM_CACHE],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        so = proc.stdout.strip()
        assert os.path.exists(so)

        # os.replace gives the garbage a NEW inode, exactly what a torn
        # write or disk fault leaves behind
        garbage = tmp_path / "garbage.so"
        garbage.write_bytes(b"\x7fELF not really a shared object")
        os.replace(garbage, so)

        # same architecture => same source hash => same cache key
        seed = np.random.default_rng(0)
        model = _bn_model(seed)
        x = seed.standard_normal((1, 3, 8, 12)).astype(np.float32)
        oracle = compile_model(model)(x).numpy()
        engine = compile_model(model, backend=CGenBackend())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # recovery must not warn
            out = engine(x).numpy()
        info = engine.plan_for(x.shape, x.dtype).backend_info
        assert info["cache_recovered"] is True
        assert info["cache_hit"] is False and info["rendered"] > 0
        np.testing.assert_allclose(out, oracle, **_band(np.float32))


# ---------------------------------------------------------------------------
# fused im2col: the gather workspace disappears for rendered convs


@needs_cc
class TestFusedIm2colWorkspace:
    def test_rendered_convs_free_their_gather_workspace(self, rng):
        model = _bn_model(rng)
        x = rng.standard_normal((2, 3, 16, 40)).astype(np.float32)

        eng_np = compile_model(model)
        eng_np(x)
        np_ws = eng_np.plan_for(x.shape, x.dtype).stats.workspace_bytes
        assert np_ws > 0  # the numpy lowering materializes im2col

        eng_c = compile_model(model, backend=CGenBackend())
        eng_c(x)
        plan = eng_c.plan_for(x.shape, x.dtype)
        freed = plan.backend_info["workspace_freed"]
        assert freed > 0
        assert plan.stats.workspace_bytes == max(0, np_ws - freed)

    def test_fallback_frees_nothing(self, rng, monkeypatch, tmp_path):
        _fresh_cache(monkeypatch, tmp_path)
        monkeypatch.setenv("REPRO_CC", "/nonexistent-compiler")
        model = _bn_model(rng)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        engine = compile_model(model, backend=CGenBackend())
        with pytest.warns(RuntimeWarning):
            engine(x)
        info = engine.plan_for(x.shape, x.dtype).backend_info
        assert info["workspace_freed"] == 0


# ---------------------------------------------------------------------------
# rendered LD-BN-ADAPT backward


def _train_stack(seed):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.Conv2d(8, 4, 1, rng=rng),
        nn.BatchNorm2d(4),
    )
    model.train()
    return model


@needs_cc
class TestRenderedBackward:
    def test_strict_backward_is_bitwise(self, rng):
        """The rendered gamma/beta backward under cgen-strict returns
        the numpy plan's loss bit for bit."""
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        losses = {}
        for backend in ("numpy", "cgen-strict"):
            step = CompiledAdaptStep(_train_stack(11), backend=backend)
            plan = step.plan_for(x)
            losses[backend] = np.asarray(plan.run(x)).copy()
            if backend == "cgen-strict":
                info = plan.backend_info
                assert info["rendered"] > 0, "backward must render"
        assert losses["numpy"].tobytes() == losses["cgen-strict"].tobytes()

    def test_band_backward_stays_in_band(self, rng):
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        oracle = np.asarray(
            CompiledAdaptStep(_train_stack(17)).plan_for(x).run(x)
        ).copy()
        step = CompiledAdaptStep(_train_stack(17), backend="cgen")
        plan = step.plan_for(x)
        loss = np.asarray(plan.run(x))
        assert plan.backend_info["rendered"] > 0
        np.testing.assert_allclose(loss, oracle, rtol=1e-5, atol=1e-7)

    def test_grouped_backward_parity(self, rng):
        """Fleet-fused G-group plans must match per-group too."""
        x = rng.standard_normal((4, 3, 8, 12)).astype(np.float32)
        oracle = np.asarray(
            CompiledAdaptStep(_train_stack(19)).plan_for(x, groups=2).run(x)
        ).copy()
        loss = np.asarray(
            CompiledAdaptStep(_train_stack(19), backend="cgen")
            .plan_for(x, groups=2)
            .run(x)
        )
        assert oracle.shape == (2,) == loss.shape
        np.testing.assert_allclose(loss, oracle, rtol=1e-5, atol=1e-7)
