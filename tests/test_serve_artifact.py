"""Serving artifacts (repro.serve.artifact): versioned export/load, factorized
round-trips, validation errors, batch canonicalization, and manifests from
older exports."""

import json
import re
import sys

import numpy as np
import pytest

from repro import nn
from repro.core import (
    factorize_model,
    full_rank_of,
    materialize_low_rank,
    merge_factorized,
)
from repro.core.low_rank_layers import LowRankConv2d, LowRankLinear, is_low_rank
from repro.models import build_model
from repro.serve import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    Predictor,
    artifact_size_bytes,
    check_batch_invariance,
    export_artifact,
    load_artifact,
    read_manifest,
)
from repro.tensor import no_grad
from repro.utils import get_rng, seed_everything

MLP_SPEC = {"name": "mlp",
            "kwargs": {"in_features": 24, "hidden_sizes": [48, 48], "num_classes": 6}}
RESNET_SPEC = {"name": "resnet18", "kwargs": {"num_classes": 10, "width_mult": 0.125}}


def _mlp():
    seed_everything(11)
    model = build_model(**{"name": MLP_SPEC["name"]}, **MLP_SPEC["kwargs"])
    model.eval()
    return model


def _resnet(factorize_prefixes=None, rank_divisor=4):
    seed_everything(3)
    model = build_model(RESNET_SPEC["name"], **RESNET_SPEC["kwargs"])
    if factorize_prefixes:
        paths = [p for p in model.factorization_candidates()
                 if p.startswith(tuple(factorize_prefixes))]
        ranks = {p: max(1, full_rank_of(model.get_submodule(p)) // rank_divisor)
                 for p in paths}
        factorize_model(model, ranks, skip_non_reducing=False)
    model.eval()
    return model


class TestDenseRoundtrip:
    def test_outputs_bit_identical_after_reload(self, tmp_path):
        model = _mlp()
        x = get_rng(offset=5).standard_normal((8, 24)).astype(np.float32)
        path = str(tmp_path / "mlp.npz")
        export_artifact(path, model, model_spec=MLP_SPEC, input_shape=(24,))
        predictor = load_artifact(path)
        with no_grad():
            direct = model(x).data
        np.testing.assert_array_equal(predictor(x), direct)

    def test_manifest_describes_the_model(self, tmp_path):
        model = _mlp()
        path = str(tmp_path / "mlp.npz")
        manifest = export_artifact(path, model, model_spec=MLP_SPEC, input_shape=(24,),
                                   metadata={"val_accuracy": 0.91})
        assert manifest["format_version"] == ARTIFACT_FORMAT_VERSION
        assert manifest["num_parameters"] == model.num_parameters()
        assert manifest["ranks"] == {}
        assert manifest["metadata"]["val_accuracy"] == 0.91
        on_disk = read_manifest(path)
        assert on_disk["state_keys"] == manifest["state_keys"]

    def test_load_into_supplied_skeleton(self, tmp_path):
        model = _mlp()
        path = str(tmp_path / "mlp.npz")
        export_artifact(path, model)                 # no spec: needs a skeleton
        seed_everything(99)
        skeleton = build_model("mlp", **MLP_SPEC["kwargs"])
        predictor = load_artifact(path, model=skeleton)
        x = get_rng(offset=5).standard_normal((4, 24)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        np.testing.assert_array_equal(predictor(x), direct)


class TestFactorizedRoundtrip:
    def test_low_rank_layers_stay_factorized(self, tmp_path):
        model = _resnet(factorize_prefixes=("layer1.", "layer2."))
        path = str(tmp_path / "fac.npz")
        manifest = export_artifact(path, model, model_spec=RESNET_SPEC,
                                   input_shape=(3, 32, 32))
        assert len(manifest["ranks"]) > 0
        predictor = load_artifact(path)
        reloaded_ranks = {p: int(m.rank) for p, m in predictor.model.named_modules()
                         if p and is_low_rank(m)}
        assert reloaded_ranks == {k: int(v) for k, v in manifest["ranks"].items()}
        assert predictor.model.num_parameters() == model.num_parameters()

    def test_factorized_outputs_bit_identical(self, tmp_path):
        model = _resnet(factorize_prefixes=("layer1.", "layer2.", "layer3."))
        x = get_rng(offset=9).standard_normal((8, 3, 32, 32)).astype(np.float32)
        path = str(tmp_path / "fac.npz")
        export_artifact(path, model, model_spec=RESNET_SPEC, input_shape=(3, 32, 32))
        predictor = load_artifact(path)
        with no_grad():
            direct = model(x).data
        np.testing.assert_array_equal(predictor(x), direct)

    def test_factorized_artifact_smaller_than_dense_export(self, tmp_path):
        factorized = _resnet(factorize_prefixes=("layer1.", "layer2.", "layer3."))
        dense = _resnet()
        fac_path, dense_path = str(tmp_path / "fac.npz"), str(tmp_path / "dense.npz")
        export_artifact(fac_path, factorized, model_spec=RESNET_SPEC)
        export_artifact(dense_path, dense, model_spec=RESNET_SPEC)
        assert artifact_size_bytes(fac_path) < artifact_size_bytes(dense_path)
        assert factorized.num_parameters() < dense.num_parameters()

    def test_merged_dense_matches_factorized_closely(self, tmp_path):
        model = _resnet(factorize_prefixes=("layer1.", "layer2."))
        x = get_rng(offset=9).standard_normal((4, 3, 32, 32)).astype(np.float32)
        with no_grad():
            factorized_out = model(x).data
        merged = merge_factorized(model)
        model.eval()
        assert merged > 0
        assert not any(is_low_rank(m) for m in model.modules())
        with no_grad():
            dense_out = model(x).data
        np.testing.assert_allclose(dense_out, factorized_out, rtol=1e-4, atol=1e-5)


class TestMixedExtraBnRoundtrip:
    def test_per_layer_extra_bn_flags_survive_reload(self, tmp_path):
        seed_everything(3)
        model = build_model(RESNET_SPEC["name"], **RESNET_SPEC["kwargs"])
        candidates = model.factorization_candidates()
        plain_path, bn_path = candidates[0], candidates[1]
        factorize_model(model, {plain_path: 2}, extra_bn=False, skip_non_reducing=False)
        factorize_model(model, {bn_path: 2}, extra_bn=True, skip_non_reducing=False)
        model.eval()
        path = str(tmp_path / "mixed.npz")
        manifest = export_artifact(path, model, model_spec=RESNET_SPEC,
                                   input_shape=(3, 32, 32))
        assert manifest["extra_bn_paths"] == [bn_path]
        predictor = load_artifact(path)
        assert predictor.model.get_submodule(plain_path).bn is None
        assert predictor.model.get_submodule(bn_path).bn is not None
        x = get_rng(offset=9).standard_normal((4, 3, 32, 32)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        np.testing.assert_array_equal(predictor(x), direct)


class _NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"the artifact rebuild drew random numbers ({name})")


def _forbid_random_draws(monkeypatch):
    """Point every ``get_rng`` a ``repro`` module holds — and so the one a
    module imported later binds — at a generator that fails on any draw."""
    from repro.utils import seed

    original = seed.get_rng
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "get_rng", None) is original:
            monkeypatch.setattr(module, "get_rng", lambda offset=0: _NoDraws())


def _export_resnet(tmp_path, prefixes=("layer2.", "layer3.")):
    path = str(tmp_path / "resnet.npz")
    manifest = export_artifact(path, _resnet(factorize_prefixes=prefixes),
                               model_spec=RESNET_SPEC, input_shape=(3, 32, 32))
    return path, manifest


class TestWeightFreeRebuild:
    """``load_artifact`` rebuilds the registry model weight-free, which is safe
    only because every weight must then come from the archive (§9.1)."""

    def test_rebuild_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path, _ = _export_resnet(tmp_path)
        _forbid_random_draws(monkeypatch)
        predictor = load_artifact(path)
        assert any(is_low_rank(module) for module in predictor.model.modules())

    def test_a_weight_missing_from_archive_and_manifest_is_an_error(self, tmp_path):
        path, manifest = _export_resnet(tmp_path)
        dropped = next(key for key in manifest["state_keys"] if key.startswith("layer3."))
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        del arrays["state/" + dropped]
        del manifest["state_keys"][dropped]
        arrays["__artifact_manifest__"] = np.frombuffer(
            json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ArtifactError, match=re.escape(repr(dropped))):
            load_artifact(path)

    @pytest.mark.parametrize("prefixes", [(), ("layer2.", "layer3.")],
                             ids=["dense", "factorized"])
    def test_predicts_the_bytes_of_a_randomly_initialised_skeleton(self, tmp_path, prefixes):
        path, manifest = _export_resnet(tmp_path, prefixes)
        seed_everything(99)
        skeleton = build_model(RESNET_SPEC["name"], **RESNET_SPEC["kwargs"])
        factorize_model(skeleton, {key: int(rank) for key, rank in manifest["ranks"].items()},
                        skip_non_reducing=False)
        x = get_rng(offset=9).standard_normal((8, 3, 32, 32)).astype(np.float32)
        weight_free = load_artifact(path)(x)
        assert weight_free.tobytes() == load_artifact(path, model=skeleton)(x).tobytes()


class TestValidation:
    def test_not_an_artifact(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ArtifactError, match="manifest"):
            read_manifest(path)

    def test_version_mismatch_is_loud(self, tmp_path):
        model = _mlp()
        path = str(tmp_path / "old.npz")
        export_artifact(path, model, model_spec=MLP_SPEC)
        # Rewrite the embedded manifest with a bumped version.
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        manifest = json.loads(arrays["__artifact_manifest__"].tobytes().decode())
        manifest["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        arrays["__artifact_manifest__"] = np.frombuffer(
            json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ArtifactError, match="format version"):
            load_artifact(path)

    def test_no_spec_and_no_skeleton_is_actionable(self, tmp_path):
        model = _mlp()
        path = str(tmp_path / "nospec.npz")
        export_artifact(path, model)
        with pytest.raises(ArtifactError, match="model spec"):
            load_artifact(path)

    def test_mismatched_skeleton_is_loud(self, tmp_path):
        model = _mlp()
        path = str(tmp_path / "mlp.npz")
        export_artifact(path, model)
        wrong = build_model("mlp", in_features=24, hidden_sizes=[16], num_classes=6)
        with pytest.raises((ArtifactError, ValueError, KeyError)):
            load_artifact(path, model=wrong)

    def test_non_json_spec_rejected_at_export(self, tmp_path):
        model = _mlp()
        with pytest.raises(ArtifactError, match="model_spec"):
            export_artifact(str(tmp_path / "bad.npz"), model,
                            model_spec={"name": "mlp", "kwargs": {"rng": object()}})

    def test_non_json_metadata_rejected_at_export(self, tmp_path):
        model = _mlp()
        with pytest.raises(ArtifactError, match="metadata"):
            export_artifact(str(tmp_path / "bad.npz"), model, model_spec=MLP_SPEC,
                            metadata={"val_accuracy": np.float32(0.91)})

    def test_garbled_manifest_json_is_an_artifact_error(self, tmp_path):
        model = _mlp()
        path = str(tmp_path / "garbled.npz")
        export_artifact(path, model, model_spec=MLP_SPEC)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["__artifact_manifest__"] = np.frombuffer(b'{"truncated', dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ArtifactError, match="cannot read artifact"):
            read_manifest(path)

    def test_predictor_validates_input_shape(self, tmp_path):
        model = _mlp()
        path = str(tmp_path / "mlp.npz")
        export_artifact(path, model, model_spec=MLP_SPEC, input_shape=(24,))
        predictor = load_artifact(path)
        with pytest.raises(ValueError, match="shape"):
            predictor(np.zeros((2, 7), dtype=np.float32))


class TestBatchCanonicalization:
    def test_single_sample_matches_batch_rows(self):
        model = _mlp()
        predictor = Predictor(model)
        x = get_rng(offset=8).standard_normal((8, 24)).astype(np.float32)
        batch = predictor(x)
        singles = np.concatenate([predictor(x[i:i + 1]) for i in range(8)], axis=0)
        np.testing.assert_array_equal(singles, batch)

    def test_invariance_check_passes_for_resnet(self):
        predictor = Predictor(_resnet())
        x = get_rng(offset=8).standard_normal((16, 3, 32, 32)).astype(np.float32)
        assert check_batch_invariance(predictor, x, max_batch_size=16)

    def test_invariance_recorded_in_manifest(self, tmp_path):
        model = _mlp()
        x = get_rng(offset=8).standard_normal((8, 24)).astype(np.float32)
        manifest = export_artifact(str(tmp_path / "m.npz"), model, model_spec=MLP_SPEC,
                                   input_shape=(24,), example_batch=x)
        assert manifest["batch_invariant"] in (True, False)
        assert manifest["batch_invariance_checked_up_to"] == 8

    def test_empty_batch_is_a_value_error(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Predictor(_mlp())(np.zeros((0, 24), dtype=np.float32))


class TestLegacyArtifacts:
    def test_plan_keys_from_older_exports_are_ignored(self, tmp_path):
        """Older exports also stored an ``inference_plan`` manifest key and
        ``plan/const/*`` arrays.  Such a file loads and predicts the bits of
        the same artifact without them."""
        plain_path, legacy_path = str(tmp_path / "plain.npz"), str(tmp_path / "legacy.npz")
        export_artifact(plain_path, _resnet(factorize_prefixes=["layer3."]),
                        model_spec=RESNET_SPEC, input_shape=(3, 32, 32))
        with np.load(plain_path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        manifest = read_manifest(plain_path)
        manifest["inference_plan"] = {"version": 1, "input_shapes": [[4, 3, 32, 32]],
                                      "steps": []}
        arrays["__artifact_manifest__"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
        arrays["plan/const/0"] = np.arange(4, dtype=np.int64)
        np.savez(legacy_path, **arrays)
        plain, legacy = load_artifact(plain_path), load_artifact(legacy_path)
        assert legacy.manifest["inference_plan"]["version"] == 1
        x = get_rng(offset=9).standard_normal((16, 3, 32, 32)).astype(np.float32)
        for rows in (1, 4, 16):
            np.testing.assert_array_equal(legacy(x[:rows]), plain(x[:rows]))

    @pytest.mark.parametrize("backend", ["numpy", "numpy-fast", "numpy-compiled"])
    def test_fused_activations_key_from_older_exports_is_ignored(self, tmp_path, backend):
        """Older exports of a model whose Linear→ReLU pairs were folded into
        one kernel also stored a ``fused_activations`` manifest key.  The
        state keys are the unfused model's, so such a file loads into the
        plain architecture and predicts its bytes."""
        model = _mlp()
        plain_path, legacy_path = str(tmp_path / "plain.npz"), str(tmp_path / "legacy.npz")
        export_artifact(plain_path, model, model_spec=MLP_SPEC, input_shape=(24,))
        with np.load(plain_path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        manifest = read_manifest(plain_path)
        manifest["fused_activations"] = {"hidden.0": "relu", "hidden.2": "relu"}
        arrays["__artifact_manifest__"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
        np.savez(legacy_path, **arrays)
        legacy = load_artifact(legacy_path, backend=backend)
        assert legacy.manifest["fused_activations"] == {"hidden.0": "relu", "hidden.2": "relu"}
        assert [type(m) for m in legacy.model.hidden] == [nn.Linear, nn.ReLU] * 2
        unfused = Predictor(model, backend=backend)
        x = get_rng(offset=7).standard_normal((8, 24)).astype(np.float32)
        for rows in (1, 4, 8):
            assert legacy(x[:rows]).tobytes() == unfused(x[:rows]).tobytes()


class TestCuttlefishExportHook:
    def test_manager_export_stamps_selection_metadata(self, tmp_path):
        from repro.core import CuttlefishConfig, CuttlefishManager

        seed_everything(5)
        model = build_model("resnet18", num_classes=10, width_mult=0.125)
        manager = CuttlefishManager(
            model,
            config=CuttlefishConfig(min_full_rank_epochs=1, max_full_rank_epochs=1,
                                    profile_mode="none"),
        )
        # Plant genuine low-rank structure so the forced switch compresses.
        rng = get_rng(offset=31)
        for path in manager.candidate_paths:
            module = model.get_submodule(path)
            w = module.weight.data
            flat = w.reshape(w.shape[0], -1)
            u = rng.standard_normal((flat.shape[0], 2)).astype(np.float32)
            v = rng.standard_normal((2, flat.shape[1])).astype(np.float32)
            module.weight.data = (u @ v).reshape(w.shape)
        assert manager.observe_epoch(model, epoch=0)
        model.eval()

        path = str(tmp_path / "cuttlefish.npz")
        manifest = manager.export_artifact(path, model, model_spec=RESNET_SPEC,
                                           input_shape=(3, 32, 32),
                                           metadata={"note": "forced switch"})
        assert manifest["metadata"]["method"] == "cuttlefish"
        assert manifest["metadata"]["switch_epoch"] == manager.report.switch_epoch
        assert manifest["metadata"]["compression_ratio"] > 1.0
        assert manifest["metadata"]["note"] == "forced switch"
        assert manifest["ranks"]  # factors exported factorized

        predictor = load_artifact(path)
        x = get_rng(offset=13).standard_normal((4, 3, 32, 32)).astype(np.float32)
        with no_grad():
            direct = model(x).data
        np.testing.assert_array_equal(predictor(x), direct)


class TestLowRankHooks:
    def test_linear_to_dense_preserves_function(self):
        layer = LowRankLinear(12, 8, rank=3)
        x = get_rng(offset=2).standard_normal((5, 12)).astype(np.float32)
        with no_grad():
            factorized = layer(x).data
        dense = layer.to_dense()
        assert isinstance(dense, nn.Linear)
        with no_grad():
            merged = dense(x).data
        np.testing.assert_allclose(merged, factorized, rtol=1e-5, atol=1e-6)

    def test_conv_to_dense_preserves_function(self):
        layer = LowRankConv2d(4, 6, 3, rank=2, stride=1, padding=1)
        x = get_rng(offset=2).standard_normal((2, 4, 8, 8)).astype(np.float32)
        with no_grad():
            factorized = layer(x).data
        dense = layer.to_dense()
        assert isinstance(dense, nn.Conv2d)
        with no_grad():
            merged = dense(x).data
        np.testing.assert_allclose(merged, factorized, rtol=1e-4, atol=1e-5)

    def test_extra_bn_refuses_merge(self):
        layer = LowRankLinear(12, 8, rank=3, extra_bn=True)
        with pytest.raises(ValueError, match="extra_bn"):
            layer.to_dense()

    def test_export_factors_orientation(self):
        layer = LowRankLinear(12, 8, rank=3)
        factors = layer.export_factors()
        assert factors["u"].shape == (12, 3)
        assert factors["vt"].shape == (3, 8)
        np.testing.assert_allclose(factors["u"] @ factors["vt"], layer.composed_weight())

    def test_materialize_low_rank_builds_structure_without_svd(self, monkeypatch):
        model = _resnet()
        paths = model.factorization_candidates()[:3]
        ranks = {p: 2 for p in paths}

        def no_svd(*args, **kwargs):
            raise AssertionError("materialize_low_rank ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        installed = materialize_low_rank(model, ranks)
        assert installed == paths
        for path in paths:
            assert model.get_submodule(path).rank == 2

    def test_materialize_rejects_conflicting_rank(self):
        model = _resnet()
        path = model.factorization_candidates()[0]
        materialize_low_rank(model, {path: 2})
        with pytest.raises(ValueError, match="already factorized"):
            materialize_low_rank(model, {path: 3})

    def test_materialize_rejects_unsupported_module(self):
        model = _resnet()
        with pytest.raises(TypeError, match="unsupported"):
            materialize_low_rank(model, {"bn1": 2})
